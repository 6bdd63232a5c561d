#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace micco {

namespace {

/// Boolean spelling of `text` (case-insensitive), or nullopt.
std::optional<bool> parse_bool(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    return true;
  }
  if (text == "0" || text == "false" || text == "off" || text == "no") {
    return false;
  }
  return std::nullopt;
}

/// Parses all of `text` as a T; nullopt on an empty value, trailing
/// characters or overflow.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> switches) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      if (!error_) error_ = "bare '--' is not a valid flag";
      continue;
    }
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) {
      // `--name value` when the next token is not itself a flag and the
      // flag is not a switch, else a boolean `--name`.
      const bool is_switch =
          std::find(switches.begin(), switches.end(), body) != switches.end();
      if (!is_switch && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_.insert_or_assign(body, Flag{argv[i + 1], true});
        ++i;
      } else {
        flags_.insert_or_assign(body, Flag{"1", false});
      }
    } else if (eq == 0) {
      if (!error_) error_ = "flag with empty name: " + arg;
    } else {
      flags_.insert_or_assign(body.substr(0, eq),
                              Flag{body.substr(eq + 1), false});
    }
  }
}

void CliArgs::usage_error(const std::string& name,
                          const std::string& problem) const {
  std::fprintf(stderr, "%s: --%s %s\n",
               program_.empty() ? "error" : program_.c_str(), name.c_str(),
               problem.c_str());
  std::exit(2);
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.contains(name);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second.value;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::optional<std::int64_t> value =
      parse_number<std::int64_t>(it->second.value);
  if (!value.has_value()) {
    usage_error(name, "expects an integer, got '" + it->second.value + "'");
  }
  return *value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::optional<double> value = parse_number<double>(it->second.value);
  if (!value.has_value()) {
    usage_error(name, "expects a number, got '" + it->second.value + "'");
  }
  return *value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::optional<bool> value = parse_bool(it->second.value);
  if (!value.has_value() && it->second.from_next_token) {
    usage_error(name, "takes no value, got '" + it->second.value +
                          "' (write --" + name + "=VALUE)");
  }
  return value.value_or(fallback);
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> result;
  for (const auto& [name, flag] : flags_) {
    (void)flag;
    if (!queried_.contains(name)) result.push_back(name);
  }
  return result;
}

std::size_t warn_unused(const CliArgs& args) {
  const std::vector<std::string> unused = args.unused();
  for (const std::string& flag : unused) {
    std::fprintf(stderr, "warning: unrecognised flag --%s ignored\n",
                 flag.c_str());
  }
  return unused.size();
}

}  // namespace micco
