#include "algo/cas/system.h"

#include "common/check.h"

namespace memu::cas {

System make_system(const Options& opt) {
  Options o = opt;
  if (o.k == 0) o.k = o.n_servers - 2 * o.f;
  MEMU_CHECK_MSG(o.n_servers >= 2 * o.f + o.k,
                 "CAS needs k <= N - 2f (N=" << o.n_servers << ", f=" << o.f
                                             << ", k=" << o.k << ")");
  MEMU_CHECK(o.k >= 1);
  MEMU_CHECK(o.value_size >= kMinValueSize);

  System sys;
  sys.codec = make_rs_codec(o.n_servers, o.k);
  sys.quorum = cas_quorum(o.n_servers, o.k);
  MEMU_CHECK(sys.quorum <= o.n_servers - o.f);

  const Value v0 = o.initial_value.empty() ? enum_value(0, o.value_size)
                                           : o.initial_value;
  MEMU_CHECK(v0.size() == o.value_size);
  const auto initial_shards = sys.codec->encode(v0);

  for (std::size_t i = 0; i < o.n_servers; ++i)
    sys.servers.push_back(sys.world.add_process(
        std::make_unique<Server>(initial_shards[i], o.delta)));

  for (std::size_t i = 0; i < o.n_writers; ++i)
    sys.writers.push_back(sys.world.add_process(std::make_unique<Writer>(
        sys.servers, sys.quorum, sys.codec,
        static_cast<std::uint32_t>(i + 1), o.hash_phase)));

  for (std::size_t i = 0; i < o.n_readers; ++i)
    sys.readers.push_back(sys.world.add_process(std::make_unique<Reader>(
        sys.servers, sys.quorum, sys.codec, o.value_size)));

  return sys;
}

}  // namespace memu::cas
