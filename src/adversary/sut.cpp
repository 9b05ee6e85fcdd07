#include "adversary/sut.h"

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"

namespace memu::adversary {

SutFactory abd_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return [=] {
    abd::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = 1;
    opt.n_readers = 1;
    opt.value_size = value_size;
    abd::System sys = abd::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writers[0];
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "abd";
    return sut;
  };
}

SutFactory abd_swmr_sut_factory(std::size_t n, std::size_t f,
                                std::size_t value_size) {
  return [=] {
    abd::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = 1;
    opt.n_readers = 1;
    opt.value_size = value_size;
    opt.single_writer = true;
    abd::System sys = abd::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writers[0];
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "abd-swmr";
    return sut;
  };
}

SutFactory cas_sut_factory(std::size_t n, std::size_t f, std::size_t k,
                           std::size_t value_size,
                           std::optional<std::size_t> delta) {
  return [=] {
    cas::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.k = k;
    opt.n_writers = 1;
    opt.n_readers = 1;
    opt.value_size = value_size;
    opt.delta = delta;
    cas::System sys = cas::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writers[0];
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = delta.has_value() ? "casgc" : "cas";
    return sut;
  };
}

SutFactory gossip_sut_factory(std::size_t n, std::size_t f,
                              std::size_t value_size) {
  return [=] {
    gossip::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_readers = 1;
    opt.value_size = value_size;
    gossip::System sys = gossip::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writer;
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "gossip";
    return sut;
  };
}

SutFactory ldr_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return [=] {
    ldr::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = 1;
    opt.n_readers = 1;
    opt.value_size = value_size;
    ldr::System sys = ldr::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writers[0];
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "ldr";
    return sut;
  };
}

SutFactory strip_sut_factory(std::size_t n, std::size_t f,
                             std::size_t value_size) {
  return [=] {
    strip::Options opt;
    opt.n_servers = n;
    opt.f = f;
    opt.n_writers = 1;
    opt.n_readers = 1;
    opt.value_size = value_size;
    strip::System sys = strip::make_system(opt);
    Sut sut;
    sut.world = std::move(sys.world);
    sut.servers = std::move(sys.servers);
    sut.writer = sys.writers[0];
    sut.reader = sys.readers[0];
    sut.f = f;
    sut.value_size = value_size;
    sut.algorithm = "strip";
    return sut;
  };
}

Bytes live_state_vector(const World& w) {
  BufWriter out;
  for (const NodeId id : w.server_ids()) {
    if (w.is_crashed(id)) continue;
    out.u32(id.value);
    const Process& p = w.process(id);
    out.prefixed([&p](BufWriter& b) { p.write_state(b, NodeRelabeling{}); });
  }
  return std::move(out).take();
}

}  // namespace memu::adversary
