// Figure 15: latency of a single 4KB WRITE probe under (a) light and
// (b) heavy background load, median and 99th percentile, for
// LUNA / RDMA / SOLAR* / SOLAR.
//
// Paper shape: SOLAR tracks RDMA closely on the light cluster and keeps a
// large margin over LUNA under load (hardware data path + dedicated
// switch queue + HPCC-style CC).
#include <cstdio>

#include "bench_util.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct P5099 {
  double p50 = 0;
  double p99 = 0;
};

P5099 run_case(StackKind stack, bool heavy) {
  auto params = bench::default_params(stack, /*compute=*/3, /*storage=*/8);
  params.on_dpu = true;
  auto c = bench::make_cluster(params);
  auto& eng = c.cluster->engine();

  std::vector<std::unique_ptr<workload::FioJob>> background;
  if (heavy) {
    // Saturating background: bulk writes from every compute node, partly
    // targeting the probe node's own stack and fabric paths.
    for (int node = 0; node < 3; ++node) {
      workload::FioConfig bg;
      bg.vd_id = c.vds[static_cast<std::size_t>(node)];
      bg.block_size = 65536;
      bg.iodepth = 24;
      bg.read_fraction = 0.2;
      background.push_back(std::make_unique<workload::FioJob>(
          eng, bench::submit_via(*c.cluster, node), bg,
          Rng(100 + static_cast<std::uint64_t>(node))));
      eng.at(eng.now(), [job = background.back().get()] { job->start(); });
    }
  }
  eng.run_until(eng.now() + ms(heavy ? 20 : 2));

  // Probe: one outstanding 4KB write at a time from node 0.
  SampleSet lat;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    transport::IoRequest io;
    io.vd_id = c.vds[0];
    io.op = transport::OpType::kWrite;
    io.offset = rng.next_below(1 << 18) * 4096;
    io.len = 4096;
    io.payload = transport::make_placeholder_blocks(io.offset, 4096, 4096);
    bool done = false;
    const TimeNs t0 = eng.now();
    eng.at(eng.now(), [&] {
      c.cluster->compute(0).submit_io(std::move(io),
                                      [&](transport::IoResult) {
                                        done = true;
                                      });
    });
    while (!done && eng.step()) {
    }
    lat.record(to_us(eng.now() - t0));
    eng.run_until(eng.now() + us(heavy ? 100 : 30));
  }
  for (auto& job : background) job->stop();
  return P5099{lat.percentile(0.50), lat.percentile(0.99)};
}

void run_panel(const char* title, bool heavy) {
  std::printf("--- %s ---\n", title);
  TextTable t({"stack", "median (us)", "99th (us)"});
  std::map<StackKind, P5099> res;
  for (StackKind s : {StackKind::kLuna, StackKind::kRdma,
                      StackKind::kSolarStar, StackKind::kSolar}) {
    res[s] = run_case(s, heavy);
    t.add_row({ebs::to_string(s), TextTable::num(res[s].p50),
               TextTable::num(res[s].p99)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("shape: SOLAR/RDMA median ratio = %.2f (paper: close to 1); "
              "LUNA/SOLAR median ratio = %.1fx\n\n",
              res[StackKind::kSolar].p50 / res[StackKind::kRdma].p50,
              res[StackKind::kLuna].p50 / res[StackKind::kSolar].p50);
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 15: single 4KB write latency under background load",
      "Fig. 15a (light) / 15b (heavy); Luna/RDMA/Solar*/Solar");
  run_panel("(a) light load", false);
  run_panel("(b) heavy load", true);
  return 0;
}
