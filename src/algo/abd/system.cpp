#include "algo/abd/system.h"

#include "common/check.h"

namespace memu::abd {

System make_system(const Options& opt) {
  MEMU_CHECK_MSG(opt.n_servers >= 2 * opt.f + 1,
                 "ABD safety needs N >= 2f + 1 (N=" << opt.n_servers
                                                    << ", f=" << opt.f << ")");
  MEMU_CHECK(!opt.single_writer || opt.n_writers == 1);
  MEMU_CHECK(opt.value_size >= kMinValueSize);

  System sys;
  sys.quorum = opt.n_servers - opt.f;

  const Value v0 =
      opt.initial_value.empty() ? enum_value(0, opt.value_size)
                                : opt.initial_value;
  MEMU_CHECK(v0.size() == opt.value_size);

  for (std::size_t i = 0; i < opt.n_servers; ++i)
    sys.servers.push_back(sys.world.add_process(std::make_unique<Server>(v0)));

  for (std::size_t i = 0; i < opt.n_writers; ++i)
    sys.writers.push_back(sys.world.add_process(std::make_unique<Writer>(
        sys.servers, sys.quorum, static_cast<std::uint32_t>(i + 1),
        opt.single_writer)));

  for (std::size_t i = 0; i < opt.n_readers; ++i)
    sys.readers.push_back(sys.world.add_process(std::make_unique<Reader>(
        sys.servers, sys.quorum, opt.read_write_back)));

  return sys;
}

}  // namespace memu::abd
