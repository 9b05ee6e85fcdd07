// Systematic Reed-Solomon over GF(2^8), plus the replication codec.
//
// Construction: start from the n x k Vandermonde matrix V with distinct
// nonzero evaluation points (any k of its rows are independent), then
// normalize to systematic form G = V * (top k rows of V)^-1. Row-selection
// preserves independence, so any k rows of G are invertible: the code is MDS.
#include "codec/codec.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "codec/matrix.h"
#include "common/check.h"

namespace memu {

namespace {

// A decode matrix, keyed by what determines it.
struct DecodeMatrix {
  std::size_t n = 0, k = 0;
  std::vector<std::size_t> rows;
  GfMatrix inverse;
};

class RsCodec final : public Codec {
 public:
  RsCodec(std::size_t n, std::size_t k) : n_(n), k_(k) {
    MEMU_CHECK_MSG(k >= 1 && k <= n && n <= 255,
                   "RS requires 1 <= k <= n <= 255, got n=" << n
                                                            << " k=" << k);
    const GfMatrix vand = GfMatrix::vandermonde(n, k);
    std::vector<std::size_t> top(k);
    for (std::size_t i = 0; i < k; ++i) top[i] = i;
    const auto top_inv = vand.select_rows(top).inverse();
    MEMU_CHECK_MSG(top_inv.has_value(), "Vandermonde top block singular");
    generator_ = vand.mul(*top_inv);
  }

  std::size_t n() const override { return n_; }
  std::size_t k() const override { return k_; }

  std::string name() const override {
    return "rs(" + std::to_string(n_) + "," + std::to_string(k_) + ")";
  }

  std::vector<Bytes> encode(const Bytes& value) const override {
    const std::size_t shard_len = shard_size(value.size());
    // Column-major data layout: column j holds byte j of each of the k
    // stripes; stripe i covers value bytes [i*shard_len, (i+1)*shard_len).
    std::vector<Bytes> shards(n_, Bytes(shard_len, 0));
    std::vector<std::uint8_t> column(k_, 0);
    for (std::size_t j = 0; j < shard_len; ++j) {
      for (std::size_t i = 0; i < k_; ++i) {
        const std::size_t pos = i * shard_len + j;
        column[i] = pos < value.size() ? value[pos] : 0;
      }
      for (std::size_t r = 0; r < n_; ++r) {
        std::uint8_t acc = 0;
        for (std::size_t i = 0; i < k_; ++i)
          acc = gf256::add(acc, gf256::mul(generator_.at(r, i), column[i]));
        shards[r][j] = acc;
      }
    }
    return shards;
  }

  std::optional<Bytes> decode(
      const std::vector<std::pair<std::size_t, Bytes>>& shards,
      std::size_t value_size) const override {
    // Distinct shard indices, ascending, first occurrence kept — built in
    // per-thread buffers, like the decode matrix cache below: a reader
    // decodes once per completed read, on the explorer's hot path.
    thread_local std::vector<std::pair<std::size_t, const Bytes*>> by_index;
    by_index.clear();
    for (const auto& [idx, data] : shards) {
      if (idx >= n_) return std::nullopt;
      const auto at = std::lower_bound(
          by_index.begin(), by_index.end(), idx,
          [](const auto& e, std::size_t i) { return e.first < i; });
      if (at == by_index.end() || at->first != idx)
        by_index.insert(at, {idx, &data});
    }
    if (by_index.size() < k_) return std::nullopt;

    const std::size_t shard_len = shard_size(value_size);
    thread_local std::vector<std::size_t> rows;
    thread_local std::vector<const Bytes*> datas;
    rows.clear();
    datas.clear();
    for (const auto& [idx, data] : by_index) {
      if (rows.size() == k_) break;
      if (data->size() != shard_len) return std::nullopt;
      rows.push_back(idx);
      datas.push_back(data);
    }

    // The inverse depends only on (n, k, rows): the generator is a fixed
    // function of n and k. Reads decode from a few row sets over and over,
    // so each thread caches the last few inverses instead of re-running
    // Gauss-Jordan and its matrices.
    const GfMatrix& dec = cached_inverse(rows);

    Bytes value(value_size, 0);
    thread_local std::vector<std::uint8_t> column;
    column.assign(k_, 0);
    for (std::size_t j = 0; j < shard_len; ++j) {
      for (std::size_t i = 0; i < k_; ++i) column[i] = (*datas[i])[j];
      for (std::size_t i = 0; i < k_; ++i) {
        std::uint8_t acc = 0;
        for (std::size_t c = 0; c < k_; ++c)
          acc = gf256::add(acc, gf256::mul(dec.at(i, c), column[c]));
        const std::size_t pos = i * shard_len + j;
        if (pos < value_size) value[pos] = acc;
      }
    }
    return value;
  }

 private:
  // The inverse of the generator rows `rows`, from this thread's cache of
  // the kCached most recently computed ones.
  const GfMatrix& cached_inverse(const std::vector<std::size_t>& rows) const {
    static constexpr std::size_t kCached = 16;
    thread_local std::vector<DecodeMatrix> cache;
    thread_local std::size_t next = 0;
    for (const DecodeMatrix& m : cache)
      if (m.n == n_ && m.k == k_ && m.rows == rows) return m.inverse;
    const auto inv = generator_.select_rows(rows).inverse();
    MEMU_CHECK_MSG(inv.has_value(), "MDS violation: selected rows singular");
    DecodeMatrix& slot = cache.size() < kCached ? cache.emplace_back()
                                                : cache[next++ % kCached];
    slot = DecodeMatrix{n_, k_, rows, *inv};
    return slot.inverse;
  }

  std::size_t n_;
  std::size_t k_;
  GfMatrix generator_;  // n x k systematic generator
};

class ReplicationCodec final : public Codec {
 public:
  explicit ReplicationCodec(std::size_t n) : n_(n) {
    MEMU_CHECK(n >= 1);
  }

  std::size_t n() const override { return n_; }
  std::size_t k() const override { return 1; }

  std::string name() const override {
    return "replication(" + std::to_string(n_) + ")";
  }

  std::vector<Bytes> encode(const Bytes& value) const override {
    return std::vector<Bytes>(n_, value);
  }

  std::optional<Bytes> decode(
      const std::vector<std::pair<std::size_t, Bytes>>& shards,
      std::size_t value_size) const override {
    for (const auto& [idx, data] : shards) {
      if (idx >= n_) return std::nullopt;
      if (data.size() != value_size) return std::nullopt;
      return data;
    }
    return std::nullopt;
  }

 private:
  std::size_t n_;
};

}  // namespace

CodecPtr make_rs_codec(std::size_t n, std::size_t k) {
  return std::make_shared<const RsCodec>(n, k);
}

CodecPtr make_replication_codec(std::size_t n) {
  return std::make_shared<const ReplicationCodec>(n);
}

}  // namespace memu
