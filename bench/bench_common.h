// Shared helpers for the figure-reproduction bench binaries: consistent
// headers, normalized series, and CSV emission next to the ASCII tables so
// results can be re-plotted. Every bench reads its command line (e.g.
// "--trials=N", so CI can run it fast) through one nu::Flags.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"

namespace nu::bench {

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", figure, description);
  std::printf("==============================================================\n");
}

inline void PrintFooter(const char* expectation) {
  std::printf("expected shape: %s\n\n", expectation);
}

/// Normalizes a series by its own maximum (the paper's Figs. 4/5 plot values
/// "divided by the maximum value of the flow-level method").
inline std::vector<double> NormalizeByMax(const std::vector<double>& values,
                                          double max_value) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    out.push_back(max_value > 0.0 ? v / max_value : 0.0);
  }
  return out;
}

/// Writes the table's machine-readable twin when "--csv=PATH" was given;
/// a no-op otherwise so the default run stays side-effect free.
inline void MaybeWriteCsv(const AsciiTable& table, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open csv output: %s\n", path.c_str());
    return;
  }
  table.WriteCsv(out);
  std::printf("csv written: %s\n", path.c_str());
}

}  // namespace nu::bench
