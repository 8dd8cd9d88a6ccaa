// FlagParser: minimal --name=value command-line parsing for the example
// binaries (the terminal stand-ins for the paper's GUI controls).

#ifndef FLINKLESS_COMMON_FLAGS_H_
#define FLINKLESS_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace flinkless {

/// Declares flags, parses argv, and reports unknown or malformed flags.
/// Usage:
///   FlagParser flags;
///   int64_t* iters = flags.Int64("max-iterations", 20, "superstep cap");
///   bool* fast = flags.Bool("fast", false, "skip the per-iteration delay");
///   if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;
class FlagParser {
 public:
  /// Registers an int64 flag; the returned pointer is stable and holds the
  /// default until Parse() overwrites it.
  int64_t* Int64(const std::string& name, int64_t default_value,
                 const std::string& help);

  /// Registers a double flag.
  double* Double(const std::string& name, double default_value,
                 const std::string& help);

  /// Registers a string flag.
  std::string* String(const std::string& name, std::string default_value,
                      const std::string& help);

  /// Registers a bool flag; accepts --name, --name=true/false/1/0.
  bool* Bool(const std::string& name, bool default_value,
             const std::string& help);

  /// Parses argv (skipping argv[0]). Returns InvalidArgument for unknown
  /// flags, bad values, or positional arguments. A bare --help is accepted
  /// and sets help_requested().
  Status Parse(int argc, const char* const* argv);

  /// Parse for a main(): returns the exit code main should return, or
  /// nullopt to go on. --help prints Usage() to stdout (exit 0); a parse
  /// error prints the error and Usage() to stderr (exit 1).
  std::optional<int> ParseMain(int argc, const char* const* argv);

  /// True when the last Parse saw --help.
  bool help_requested() const { return help_requested_; }

  /// One line per flag: "--name (default: x)  help".
  std::string Usage() const;

 private:
  enum class Kind { kInt64, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string help;
    std::string default_text;
    // Exactly one is used, selected by kind.
    int64_t int64_value = 0;
    double double_value = 0;
    std::string string_value;
    bool bool_value = false;
  };

  Flag* Register(const std::string& name, Kind kind, const std::string& help);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
};

}  // namespace flinkless

#endif  // FLINKLESS_COMMON_FLAGS_H_
