#include "src/common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace soc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void CliArgs::reject(const std::string& name, const char* what) const {
  errors_.push_back("--" + name + ": '" + values_.at(name) + "' is not " +
                    what);
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long long out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') reject(name, "an integer");
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') reject(name, "a number");
  return out;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  return *v == "true" || *v == "1" || *v == "yes";
}

void CliArgs::exit_on_errors() const {
  std::vector<std::string> errors = errors_;
  for (const auto& [name, value] : values_) {
    if (!read_.contains(name)) errors.push_back("unknown flag --" + name);
  }
  if (errors.empty()) return;
  for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  std::exit(2);
}

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<std::string> CliArgs::get_list(const std::string& name,
                                           const std::string& fallback) const {
  return split_csv(get(name, fallback));
}

std::optional<std::vector<double>> CliArgs::get_double_list(
    const std::string& name, const std::string& fallback) const {
  std::vector<double> out;
  for (const std::string& s : get_list(name, fallback)) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      std::fprintf(stderr, "--%s: '%s' is not a number\n", name.c_str(),
                   s.c_str());
      return std::nullopt;
    }
    out.push_back(v);
  }
  return out;
}

std::optional<std::vector<std::size_t>> CliArgs::get_size_list(
    const std::string& name, const std::string& fallback) const {
  std::vector<std::size_t> out;
  for (const std::string& s : get_list(name, fallback)) {
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 0) {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n",
                   name.c_str(), s.c_str());
      return std::nullopt;
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

}  // namespace soc
