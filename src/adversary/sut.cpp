#include "adversary/sut.h"

namespace memu::adversary {

SutFactory sut_factory(std::string_view algo, std::size_t n, std::size_t f,
                       std::size_t k, std::size_t value_size,
                       std::optional<std::size_t> delta) {
  const algo::Family& fam = algo::family(algo);
  const algo::Spec spec{
      .n_servers = n, .f = f, .k = k, .value_size = value_size, .delta = delta};
  return [&fam, spec] {
    algo::Deployment d = fam.build(spec);
    Sut sut;
    sut.world = std::move(d.world);
    sut.servers = std::move(d.servers);
    sut.writer = d.writers[0];
    sut.reader = d.readers[0];
    sut.f = spec.f;
    sut.value_size = spec.value_size;
    sut.algorithm = fam.name;
    return sut;
  };
}

SutFactory abd_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return sut_factory("abd", n, f, 0, value_size);
}

SutFactory cas_sut_factory(std::size_t n, std::size_t f, std::size_t k,
                           std::size_t value_size,
                           std::optional<std::size_t> delta) {
  return sut_factory(delta.has_value() ? "casgc" : "cas", n, f, k, value_size,
                     delta);
}

SutFactory gossip_sut_factory(std::size_t n, std::size_t f,
                              std::size_t value_size) {
  return sut_factory("gossip", n, f, 0, value_size);
}

SutFactory ldr_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return sut_factory("ldr", n, f, 0, value_size);
}

SutFactory strip_sut_factory(std::size_t n, std::size_t f,
                             std::size_t value_size) {
  return sut_factory("strip", n, f, 0, value_size);
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
