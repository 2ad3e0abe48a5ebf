// spe_bench — the compiled half of the end-to-end benchmark. run.py
// drives it; each subcommand prints one JSON object on stdout.
//
//   spe_bench gen   --dataset D --scale X --seed S --dir DIR
//   spe_bench fit   --dir DIR --base dt|gbdt --partner dt|gbdt
//                   --cache cold|warm --fits N --seed S --trace 0|1
//   spe_bench serve --dir DIR --seconds T --ladder R1,R2,..
//                   --p99-limit-ms L --seed S --trace 0|1
//
// Settings that no workload varies are named constants beside the code
// that uses them.

#include <cstdio>
#include <string>

#include "common.h"

namespace spebench {
int RunGen(const Flags& flags);
int RunFit(const Flags& flags);
int RunServe(const Flags& flags);
}  // namespace spebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: spe_bench gen|fit|serve --key value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const spebench::Flags flags(argc - 2, argv + 2);
  if (command == "gen") return spebench::RunGen(flags);
  if (command == "fit") return spebench::RunFit(flags);
  if (command == "serve") return spebench::RunServe(flags);
  std::fprintf(stderr, "spe_bench: unknown command %s\n", command.c_str());
  return 2;
}
