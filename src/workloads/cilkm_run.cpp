// The workload driver: execute any (workload × view-store policy × worker
// count) cell of the registered scenario matrix, verify every cell against
// its serial reference, and print one timing row per cell.
//
//   $ ./cilkm_run --list
//   $ ./cilkm_run --workload pbfs --policy mm --workers 1,2,8
//   $ ./cilkm_run                      # the full smoke matrix
#include "workloads/driver.hpp"

int main(int argc, char** argv) {
  cilkm::workloads::DriverOptions opts;
  if (!cilkm::workloads::parse_driver_options(argc, argv, &opts)) return 2;
  if (opts.help) return 0;  // usage already printed, nothing to run
  return cilkm::workloads::run_matrix(opts) == 0 ? 0 : 1;
}
