// Table II: the NVIDIA RTX 2080 Ti configuration used for the detailed
// Figure-4 comparison. Prints every row and checks it against the paper.
#include <cstdio>

#include "common/status.h"
#include "config/presets.h"
#include "swiftsim_bench.h"

namespace swiftsim::bench {

int RunTable2(Bench&) {
  const GpuConfig c = Rtx2080TiConfig();
  std::printf("%-24s %u\n", "# SMs", c.num_sms);
  std::printf("%-24s %u\n", "# Sub-Cores/SM", c.sub_cores_per_sm);
  std::printf("%-24s Warp Scheduler: %ux, %s\n", "Resources/Sub-core",
              c.schedulers_per_sub_core, ToString(c.sched_policy).c_str());
  std::printf("%-24s Exec Units: INT:%ux, SP:%ux, DP:1/%u, SFU:%ux\n", "",
              c.int_unit.lanes, c.sp_unit.lanes,
              c.dp_unit.issue_interval(), c.sfu_unit.lanes);
  std::printf("%-24s LD/ST Units: %ux\n", "", c.ldst_units_per_sub_core);
  std::printf("%-24s sectored%s, %s, %u banks, %uB/line, %uB/sector,\n",
              "L1 in SM", c.l1.streaming ? ", streaming" : "",
              ToString(c.l1.write_policy).c_str(), c.l1.banks,
              c.l1.line_bytes, c.l1.sector_bytes);
  std::printf("%-24s %u MSHR entries, %u max merge/MSHR, %s, %u cycles\n",
              "", c.l1.mshr_entries, c.l1.mshr_max_merge,
              ToString(c.l1.replacement).c_str(), c.l1.latency);
  std::printf("%-24s sectored, %s, %uB/line, %uB/sector,\n", "L2 Cache",
              ToString(c.l2.write_policy).c_str(), c.l2.line_bytes,
              c.l2.sector_bytes);
  std::printf("%-24s %u MSHR entries, %u max merge/MSHR, %s, %u cycles "
              "(load-to-use)\n",
              "", c.l2.mshr_entries, c.l2.mshr_max_merge,
              ToString(c.l2.replacement).c_str(), c.l1.latency + c.l2.latency);
  std::printf("%-24s %u memory partitions, %u cycles\n", "Memory",
              c.num_mem_partitions, c.dram.latency);

  SS_CHECK(c.num_sms == 68 && c.sub_cores_per_sm == 4, "Table II SM row");
  SS_CHECK(c.sched_policy == SchedPolicy::kGto &&
               c.schedulers_per_sub_core == 1,
           "Table II scheduler row");
  SS_CHECK(c.int_unit.lanes == 16 && c.sp_unit.lanes == 16 &&
               c.dp_unit.issue_interval() == 64 && c.sfu_unit.lanes == 4 &&
               c.ldst_units_per_sub_core == 4,
           "Table II exec-unit row");
  SS_CHECK(c.l1.streaming && c.l1.banks == 4 && c.l1.line_bytes == 128 &&
               c.l1.sector_bytes == 32 && c.l1.mshr_entries == 256 &&
               c.l1.mshr_max_merge == 8 && c.l1.latency == 32,
           "Table II L1 row");
  SS_CHECK(c.l2.mshr_entries == 192 && c.l2.mshr_max_merge == 4 &&
               c.l1.latency + c.l2.latency == 188,
           "Table II L2 row");
  SS_CHECK(c.num_mem_partitions == 22 && c.dram.latency == 227,
           "Table II memory row");
  std::printf("all Table II values verified against the paper\n");
  return 0;
}

}  // namespace swiftsim::bench
