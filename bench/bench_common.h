// Shared helpers for the figure-reproduction bench binaries: consistent
// headers, normalized series, and CSV emission next to the ASCII tables so
// results can be re-plotted. Every bench reads its command line (e.g.
// "--trials=N", so CI can run it fast) through one nu::Flags, and a
// malformed value exits 2 like the tools do (see below).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/text.h"

namespace nu::bench {

namespace detail {

inline std::terminate_handler previous_terminate = nullptr;

/// nu::Flags throws CorruptInput for a value that does not parse, and no
/// bench catches it. Ending there prints the error and exits 2; any other
/// uncaught exception goes on to the previous handler.
[[noreturn]] inline void ExitTwoOnCorruptInput() {
  if (const std::exception_ptr error = std::current_exception()) {
    try {
      std::rethrow_exception(error);
    } catch (const CorruptInput& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::fflush(nullptr);
      std::_Exit(2);
    } catch (...) {
    }
  }
  if (previous_terminate != nullptr) previous_terminate();
  std::abort();
}

inline const bool exit_two_installed =
    (previous_terminate = std::set_terminate(ExitTwoOnCorruptInput), true);

}  // namespace detail

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
