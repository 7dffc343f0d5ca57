#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace dare {

namespace {

std::string trim(const std::string& s) {
  auto b = s.begin();
  auto e = s.end();
  while (b != e && std::isspace(static_cast<unsigned char>(*b))) ++b;
  while (e != b && std::isspace(static_cast<unsigned char>(*(e - 1)))) --e;
  return std::string(b, e);
}

void print_usage(const char* program, const DriverArgs& args) {
  std::cerr << "usage: " << program;
  for (const auto& name : args.positionals) std::cerr << " <" << name << '>';
  if (args.config_file) std::cerr << " [config=<file>]";
  std::cerr << " [key=value ...]\naccepted keys:";
  std::vector<std::string> keys = args.keys;
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) std::cerr << ' ' << key;
  std::cerr << '\n';
}

}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Config: missing '=' on line " +
                                  std::to_string(line_no));
    }
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("Config: cannot read file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return from_string(text.str());
}

Config Config::from_args(const std::vector<std::string>& args,
                         std::vector<std::string>* positional) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      if (positional != nullptr) positional->push_back(arg);
      continue;
    }
    cfg.set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  if (key.empty()) throw std::invalid_argument("Config: empty key");
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  double d = 0.0;
  try {
    std::size_t pos = 0;
    d = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not a double: " + *v);
  }
  // std::stod happily parses "nan"/"inf" spellings, but no cluster knob has
  // a meaningful non-finite value and several per-field validators only
  // bound-check (NaN compares false against every bound, sailing through) —
  // reject here so `budget=nan` fails at the parse with the key named.
  if (!std::isfinite(d)) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not a finite double: " + *v);
  }
  return d;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t i = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return i;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not an integer: " + *v);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  throw std::invalid_argument("Config: key '" + key +
                              "' is not a boolean: " + *v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

int run_driver(int argc, char** argv, const DriverArgs& args,
               const std::function<int(const Config&)>& body) {
  try {
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
    std::vector<std::string> positional;
    Config cfg = Config::from_args(tokens, &positional);
    if (args.config_file && cfg.contains("config")) {
      Config merged = Config::from_file(cfg.get_string("config", ""));
      merged.merge(cfg);  // the command line wins over the file
      cfg = std::move(merged);
    }

    // A typo'd knob must fail loudly, not silently run the default config.
    std::string problem;
    for (std::size_t i = args.positionals.size(); i < positional.size(); ++i) {
      problem += ' ' + positional[i];
    }
    for (const auto& key : cfg.keys()) {
      if ((!args.config_file || key != "config") &&
          std::find(args.keys.begin(), args.keys.end(), key) ==
              args.keys.end()) {
        problem += ' ' + key + "=...";
      }
    }
    if (!problem.empty()) {
      problem = "unrecognized argument(s):" + problem;
    } else {
      for (std::size_t i = positional.size(); i < args.positionals.size();
           ++i) {
        problem += " <" + args.positionals[i] + '>';
      }
      if (!problem.empty()) problem = "missing argument(s):" + problem;
    }
    if (!problem.empty()) {
      std::cerr << "error: " << problem << '\n';
      print_usage(argc > 0 ? argv[0] : "driver", args);
      return 1;
    }

    for (std::size_t i = 0; i < args.positionals.size(); ++i) {
      cfg.set(args.positionals[i], positional[i]);
    }
    return body(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace dare
