// Appendix A of the paper, as code: a server that stores the XOR of
// versions defeats storage accounting that attributes each stored bit to a
// unique write (the assumption of reference [23]), while the paper's
// universal counting measure — and ours — still applies.
//
// The scenario (Appendix A verbatim): two servers both store v1 + v2 + v3
// (XOR over GF(2^m)). No value is recoverable from the two servers. One
// step later, a server receives v2 and now stores v1 + v3. A reader that
// sees both servers can now recover v2 = (v1+v2+v3) XOR (v1+v3) — yet the
// number of stored bits never changed.
#include <gtest/gtest.h>

#include "common/buffer.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu {
namespace {

Value xor_of(const Value& a, const Value& b) {
  MEMU_CHECK(a.size() == b.size());
  Value out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
  return out;
}

// Message carrying a raw value to subtract out of the server's XOR cell.
struct Subtract final : Payload<0, "xor.subtract"> {
  Value value;
  explicit Subtract(Value v)
      : Payload(ValueClass::kBulk), value(std::move(v)) {}
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 0};
  }
  void encode_content(BufWriter& w) const override { w.bytes(value); }
};

// A server whose entire state is ONE value-sized XOR cell: the storage
// method [23] cannot model (no bit belongs to any single write).
class XorServer final : public CloneableProcess<XorServer> {
 public:
  explicit XorServer(Value cell) : cell_(std::move(cell)) {}

  void on_message(Context&, NodeId, const MessagePayload& msg) override {
    const auto& sub = dynamic_cast<const Subtract&>(msg);
    cell_ = xor_of(cell_, sub.value);
  }

  StateBits state_size() const override {
    return {static_cast<double>(cell_.size()) * 8.0, 0};
  }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.bytes(cell_);
  }
  std::string name() const override { return "xor.server"; }
  bool is_server() const override { return true; }

  const Value& cell() const { return cell_; }

 private:
  Value cell_;
};

constexpr std::size_t kSize = 16;

TEST(AppendixA, XorCellMakesBitAttributionMeaningless) {
  const Value v1 = enum_value(1, kSize);
  const Value v2 = enum_value(2, kSize);
  const Value v3 = enum_value(3, kSize);
  const Value mix = xor_of(xor_of(v1, v2), v3);

  World w;
  const NodeId s1 = w.add_process(std::make_unique<XorServer>(mix));
  const NodeId s2 = w.add_process(std::make_unique<XorServer>(mix));
  const NodeId client = w.add_process(std::make_unique<XorServer>(Value(kSize, 0)));

  // Before the step: the two servers' contents are identical; XORing them
  // yields zero — no version is recoverable from these two servers.
  const auto& srv1 = dynamic_cast<const XorServer&>(w.process(s1));
  const auto& srv2 = dynamic_cast<const XorServer&>(w.process(s2));
  EXPECT_EQ(xor_of(srv1.cell(), srv2.cell()), Value(kSize, 0));

  const double bits_before = w.total_server_storage().total();

  // The single step: server 1 receives v2 and subtracts it.
  w.enqueue({client, s1}, make_msg<Subtract>(v2));
  w.deliver({client, s1});

  // After the step: v2 is recoverable by XORing the two servers' cells...
  EXPECT_EQ(xor_of(srv1.cell(), srv2.cell()), v2);
  // ...yet the number of stored bits did not change at all — the event
  // reference [23]'s accounting charges log2|V| bits for.
  const double bits_after = w.total_server_storage().total();
  EXPECT_DOUBLE_EQ(bits_before, bits_after);
}

TEST(AppendixA, StateVectorMeasureStillDistinguishes) {
  // The paper's (and our) measure is over server STATES, not attributed
  // bits: different recoverable contents are different state vectors, so
  // the universal counting arguments apply to XOR storage unchanged.
  const Value v1 = enum_value(1, kSize);
  const Value v2 = enum_value(2, kSize);
  const Value v3 = enum_value(3, kSize);

  auto world_with = [&](const Value& cell1, const Value& cell2) {
    World w;
    w.add_process(std::make_unique<XorServer>(cell1));
    w.add_process(std::make_unique<XorServer>(cell2));
    BufWriter out;
    for (const NodeId id : w.server_ids())
      out.bytes(w.process(id).encode_state());
    return std::move(out).take();
  };

  const Value mix123 = xor_of(xor_of(v1, v2), v3);
  const Value mix13 = xor_of(v1, v3);
  const Value mix12 = xor_of(v1, v2);

  // "v2 recoverable" vs "v3 recoverable" vs "nothing recoverable" are all
  // distinct state vectors — injectivity arguments survive compression.
  EXPECT_NE(world_with(mix123, mix13), world_with(mix123, mix12));
  EXPECT_NE(world_with(mix123, mix13), world_with(mix123, mix123));
}

TEST(AppendixA, XorCellHoldsThreeVersionsInOneValueOfBits) {
  // The compression itself: one B-bit cell carries constraints about three
  // versions. Given any two of the values, the third is recoverable from a
  // single server — "joint encoding across versions" the paper's Section 7
  // says would be necessary to beat f+1 at unbounded concurrency.
  const Value v1 = enum_value(1, kSize);
  const Value v2 = enum_value(2, kSize);
  const Value v3 = enum_value(3, kSize);
  const Value mix = xor_of(xor_of(v1, v2), v3);

  EXPECT_EQ(xor_of(mix, xor_of(v2, v3)), v1);
  EXPECT_EQ(xor_of(mix, xor_of(v1, v3)), v2);
  EXPECT_EQ(xor_of(mix, xor_of(v1, v2)), v3);
  EXPECT_DOUBLE_EQ(
      XorServer(mix).state_size().total(),
      static_cast<double>(kSize) * 8.0);  // exactly one value of storage
}

}  // namespace
}  // namespace memu
