// Command-line front end for building, persisting, querying and evaluating
// HABF filters from key files. The logic lives in RunCli() so the test
// suite can drive it without spawning processes; tools/habf_tool.cc is the
// thin binary wrapper.
//
// Commands:
//   build --positives FILE (--out FILTER | --wal-dir DIR) [--negatives FILE]
//         [--bits-per-key N] [--delta D] [--k K] [--cell-bits C] [--fast]
//   query --filter FILTER (--key KEY ... | --keys FILE)
//   stats (--filter FILTER | --port P)
//   eval  --filter FILTER --negatives FILE
//   inspect SNAPSHOT
//   generate --dataset shalla|ycsb --positives FILE --negatives FILE
//            [--count N] [--zipf THETA] [--seed S]
//   serve (--snapshot FILTER | --wal-dir DIR) [--port P] [--port-file FILE]
//         [--workers N] [--duration-ms MS]
//
// Key files are one key per line; negative files may append a cost after a
// tab ("key\tcost", default cost 1.0). `generate` emits the repository's
// synthetic datasets in exactly that format, so the full pipeline can be
// driven end to end without external data. `build --wal-dir` writes a
// durable dynamic filter directory instead of a snapshot file. `serve`
// exposes a filter over the HNP1 socket protocol (DESIGN.md §11): static
// snapshots answer queries only; a --wal-dir dynamic filter also accepts
// wire mutations. habf_loadgen is the matching client (--mutate-rate mixes
// durable writes into its load).

#pragma once

#include <string>
#include <vector>

namespace habf {
namespace cli {

/// Runs one CLI invocation. `args` excludes the program name. Normal output
/// is appended to `*out`, diagnostics to `*err`. Returns the process exit
/// code (0 on success, 1 on usage errors, 2 on I/O or data errors).
int RunCli(const std::vector<std::string>& args, std::string* out,
           std::string* err);

}  // namespace cli
}  // namespace habf
