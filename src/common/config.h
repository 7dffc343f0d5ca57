// Minimal key=value configuration store with typed accessors, and the one
// command-line front end every driver binary (bench, example, tool) runs
// through.
//
// Mirrors Hadoop's `*-site.xml` role: the paper's patch adds three knobs
// (p, threshold, budget); examples and benches parse overrides from the
// command line (`key=value` tokens) or from a config file.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dare {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" lines; '#' starts a comment; blank lines ignored.
  /// Throws std::invalid_argument on malformed lines.
  static Config from_string(const std::string& text);

  /// Parse a configuration file (same syntax as from_string).
  /// Throws std::runtime_error if the file cannot be read.
  static Config from_file(const std::string& path);

  /// Parse argv-style "key=value" tokens (tokens without '=' are ignored and
  /// returned so callers can treat them as positional arguments).
  static Config from_args(const std::vector<std::string>& args,
                          std::vector<std::string>* positional = nullptr);

  void set(const std::string& key, const std::string& value);

  bool contains(const std::string& key) const;

  /// Typed getters: return `fallback` when the key is absent; throw
  /// std::invalid_argument when present but unparsable. get_double also
  /// rejects non-finite values ("nan", "inf", ...): no knob has a
  /// meaningful non-finite setting, and NaN would slip past bound-checking
  /// validators downstream.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// A count (`fallback` when absent): a negative value, or one that does
  /// not fit T, throws std::invalid_argument naming the key instead of
  /// wrapping around in the cast (`jobs=-1` would ask for SIZE_MAX jobs).
  template <typename T>
  T get_count(const std::string& key, T fallback) const {
    if (!contains(key)) return fallback;
    const std::int64_t value = get_int(key, 0);
    if (value < 0 || static_cast<std::uint64_t>(value) >
                         static_cast<std::uint64_t>(
                             std::numeric_limits<T>::max())) {
      throw std::invalid_argument(key + " must be a count >= 0, got " +
                                  std::to_string(value));
    }
    return static_cast<T>(value);
  }

  /// All keys in sorted order (for dumping effective configuration).
  std::vector<std::string> keys() const;

  /// Merge: values in `other` override values here.
  void merge(const Config& other);

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

/// What a driver binary accepts on its command line.
struct DriverArgs {
  /// Every key the binary reads; any other key is rejected. A key belongs
  /// here only if reading it can change the run.
  std::vector<std::string> keys;
  /// Names of the required positional arguments, in order. Each value is
  /// stored in the Config under its name.
  std::vector<std::string> positionals = {};
  /// Accept `config=<file>`: the file's keys merge under the command
  /// line's and are checked against `keys` the same way.
  bool config_file = false;
};

/// The front end of every driver: parse `argv` as `key=value` tokens plus
/// the declared positionals, reject any other argument with a usage line
/// listing the accepted keys, then run `body`. Any std::exception (a
/// malformed value, a rejected knob, a failed run) becomes `error: <what>`
/// on stderr. Returns the exit status: body's, or 1 on any error.
int run_driver(int argc, char** argv, const DriverArgs& args,
               const std::function<int(const Config&)>& body);

}  // namespace dare
