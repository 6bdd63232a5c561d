// Minimal command-line flag parsing for the micco CLI and the bench/example
// binaries.
// Supports `--name=value`, `--name value` and boolean `--name` /
// `--name=off` forms; unknown flags are reported, not silently ignored.
// A malformed numeric or switch value is a usage error: like argparse, the
// getter prints a diagnostic naming the flag and exits with status 2, so a
// command never runs on a value it misread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace micco {

class CliArgs {
 public:
  /// Parses argv. On malformed input, records an error retrievable via
  /// error(); callers decide whether to abort. `switches` names the boolean
  /// flags: `--name TOKEN` never makes TOKEN their value, it stays a
  /// positional argument. Any other flag takes the next token as its value
  /// unless that token is itself a flag.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<std::string_view> switches = {});

  /// True when `--name` appeared in any form.
  bool has(const std::string& name) const;

  /// Returns the flag value, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric flags. The whole value must parse (no trailing characters, no
  /// empty value); otherwise the process exits with status 2.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Boolean flags: bare `--name` and values 1/true/on/yes are true;
  /// 0/false/off/no are false; any other `--name=value` falls back. A flag
  /// read here that took the following token as its value (`--name TOKEN`
  /// without being declared a switch) exits with status 2 unless TOKEN is
  /// one of those spellings: a boolean never silently swallows a file name.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// First parse error, if any (e.g. `--=x`).
  const std::optional<std::string>& error() const { return error_; }

  /// Flags that were present but never queried; used by binaries to warn
  /// about typos before running a long experiment.
  std::vector<std::string> unused() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::string value;
    /// Taken from the token after `--name` rather than `--name=value`.
    bool from_next_token = false;
  };

  /// Prints "<program>: --<name> <problem>" to stderr and exits with 2.
  [[noreturn]] void usage_error(const std::string& name,
                                const std::string& problem) const;

  std::string program_;
  std::map<std::string, Flag> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  std::optional<std::string> error_;
};

/// Prints "warning: unrecognised flag --NAME ignored" to stderr for each
/// flag in args.unused() — call after the last get(). Returns how many
/// flags it reported.
std::size_t warn_unused(const CliArgs& args);

}  // namespace micco
