// weakscan — the paper's attack as one operational tool: keep a key corpus
// on disk, sweep it pairwise or by product tree with crash-safe
// checkpoints, vet newly harvested keys one at a time or as a streaming
// intake service.
//
//   weakscan generate corpus.keys 256 512 4
//   weakscan scan corpus.keys --threads 4 --metrics-out scan.ndjson
//   weakscan tree corpus.keys --gcds-out gcds.txt
#include <cstdio>
#include <cstring>
#include <exception>

#include "cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: weakscan <command> [arguments]   (defaults in parentheses)\n"
    "\n"
    "  generate <file> <count> <bits> <weak_pairs> [seed (1)]\n"
    "      synthesize a corpus with planted shared primes\n"
    "  import-pem <pem-file> <keys-file>\n"
    "      write the moduli of a PEM public-key bundle as a keystore file\n"
    "  export-pem <keys-file> <pem-file>\n"
    "      write the stored moduli as a PEM bundle (e = 65537 assumed)\n"
    "  probe <file> <modulus-hex>\n"
    "      test one new modulus against the stored corpus\n"
    "  scan <file>   checkpointed all-pairs sweep\n"
    "      --checkpoint <path> (<file>.ckpt)  --chunk-blocks <n> (0: auto)\n"
    "      --group-size <r> (64)  --engine auto|vector|staged|scalar (auto)\n"
    "      --threads <n> (0: all cores, 1: inline)\n"
    "      --tile-blocks <n> (0: auto)  --stop-after <chunks> (0: none)\n"
    "      --discard-checkpoint\n"
    "  tree <file>   checkpointed batch-GCD tree\n"
    "      --checkpoint <path> (<file>.btr)  --fsync-every <levels> (1)\n"
    "      --stop-after-levels <n> (0: none)  --gcds-out <file>\n"
    "      --kill-after-levels <n> (0: none)\n"
    "  intake   streaming key-intake daemon on 127.0.0.1\n"
    "      --port <n> (7411)  --metrics-port <n> (off)  --seed <file>\n"
    "      --journal <file>  --journal-fsync-every <records> (1)\n"
    "      --max-conns <n> (8)  --queue-capacity <n> (1024)\n"
    "      --batch-max <n> (64)  --engine auto|vector|staged|scalar (auto)\n"
    "      --threads <n> (0: global pool, 1: inline)\n"
    "      --exit-after-idle <sec> (0: until SIGINT/SIGTERM)\n"
    "  scan, tree and intake also take the telemetry flags\n"
    "      --metrics-out <file> (NDJSON)  --trace-out <file> (Chrome JSON)\n"
    "      --metrics-interval <sec> (0: final snapshot only; intake 5)\n"
    "\n"
    "Value flags take `--flag value` or `--flag=value`.\n"
    "\n"
    "exit codes:\n"
    "  0    done (probe: no shared factor)\n"
    "  1    scan quarantined a chunk, or probe found a shared factor\n"
    "  2    usage, flag, I/O or journal error\n"
    "  3    interrupted by --stop-after / --stop-after-levels; rerun to "
    "continue\n"
    "  137  killed by --kill-after-levels\n";

struct Command {
  const char* name;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"generate", weakscan::run_generate},
    {"import-pem", weakscan::run_import_pem},
    {"export-pem", weakscan::run_export_pem},
    {"probe", weakscan::run_probe},
    {"scan", weakscan::run_scan},
    {"tree", weakscan::run_tree},
    {"intake", weakscan::run_intake},
};

}  // namespace

int main(int argc, char** argv) {
  for (const Command& command : kCommands) {
    if (argc < 2 || std::strcmp(argv[1], command.name) != 0) continue;
    try {
      return command.run(argc - 2, argv + 2);
    } catch (const weakscan::UsageError& e) {
      std::fprintf(stderr, "weakscan %s: %s\n\n%s", command.name, e.what(),
                   kUsage);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
    return weakscan::kExitError;
  }
  std::fputs(kUsage, stderr);
  return weakscan::kExitError;
}
