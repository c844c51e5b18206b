#include "src/common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/assert.hpp"

namespace soc::json {

namespace {

/// The characters JSON writes as a backslash and a letter, and the letters.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
constexpr std::string_view kLetters = "\"\\bfnrt";

/// The whole of `text` parsed as a T, or nullopt.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

/// `got` as a T, or T{} after clearing `ok`.
template <typename T, typename Got>
T latch(bool& ok, const Got& got) {
  if (got) return T(*got);
  ok = false;
  return T{};
}

}  // namespace

Value::Value(std::uint64_t n) : kind_(Kind::kNumber) {
  char buf[24];
  text_.assign(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
}

Value::Value(double d) : kind_(Kind::kNumber) {
  SOC_CHECK_MSG(std::isfinite(d), "JSON has no spelling for NaN or infinity");
  char buf[32];
  text_.assign(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
}

std::optional<std::uint64_t> Value::u64() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  return parse_whole<std::uint64_t>(text_);
}

std::optional<double> Value::f64() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  return parse_whole<double>(text_);
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Recursive descent over one document.  Every member function returns
/// false on malformed input, and the caller discards what it built.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> document() {
    Value v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  bool value(Value& out, int depth) {
    skip_ws();
    if (pos_ == s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
      case '[': return container(out, depth + 1);
      case '"': out.kind_ = Value::Kind::kString; return string(out.text_);
      case 't': out = Value(true); return word("true");
      case 'f': out = Value(false); return word("false");
      case 'n': return word("null");
      default: return number(out);
    }
  }

  /// An object or an array; an object refuses a key it already holds.
  bool container(Value& out, int depth) {
    const bool object = s_[pos_++] == '{';
    out.kind_ = object ? Value::Kind::kObject : Value::Kind::kArray;
    skip_ws();
    if (depth > kMaxDepth) return false;
    if (eat(object ? '}' : ']')) return true;
    do {
      skip_ws();
      if (object) {
        std::string key;
        if (pos_ == s_.size() || s_[pos_] != '"' || !string(key) ||
            out.find(key) != nullptr) {
          return false;
        }
        skip_ws();
        if (!eat(':')) return false;
        out.members_.emplace_back(std::move(key), Value());
      } else {
        out.items_.emplace_back();
      }
      Value& item = object ? out.members_.back().second : out.items_.back();
      if (!value(item, depth)) return false;
      skip_ws();
    } while (eat(','));
    return eat(object ? '}' : ']');
  }

  /// A string, from its opening quote.
  bool string(std::string& out) {
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ == s_.size()) return false;
      const char e = s_[pos_++];
      const std::size_t i = kLetters.find(e);
      if (i != std::string_view::npos) {
        out += kEscaped[i];
      } else if (e == '/') {
        out += '/';
      } else if (e != 'u' || !unicode(out)) {
        return false;
      }
    }
    return false;
  }

  /// The code point of a "\u" escape (a surrogate pair spells one), as
  /// UTF-8.  A lone surrogate has no UTF-8 form and is rejected.
  bool unicode(std::string& out) {
    std::uint32_t cp = 0;
    if (!hex4(cp) || (cp >= 0xdc00 && cp < 0xe000)) return false;
    if (cp >= 0xd800 && cp < 0xdc00) {
      std::uint32_t low = 0;
      if (!word("\\u") || !hex4(low) || low < 0xdc00 || low >= 0xe000) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    const std::uint32_t lead = tail == 0 ? 0 : (0xff00u >> (tail + 1)) & 0xffu;
    out += static_cast<char>(lead | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80u | ((cp >> (6 * i)) & 0x3fu));
    }
    return true;
  }

  bool hex4(std::uint32_t& out) {
    if (s_.size() - pos_ < 4) return false;
    const char* end = s_.data() + pos_ + 4;
    const auto [ptr, ec] = std::from_chars(s_.data() + pos_, end, out, 16);
    pos_ += 4;
    return ec == std::errc() && ptr == end;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, within a double's range.
  bool number(Value& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    out.kind_ = Value::Kind::kNumber;
    out.text_ = s_.substr(start, pos_ - start);
    return out.f64().has_value();
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  bool eat(char c) { return word(std::string_view(&c, 1)); }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::optional<Value> parse(std::string_view text) {
  return Parser(text).document();
}

class Writer {
 public:
  static void write(std::string& out, const Value& v, std::size_t indent) {
    switch (v.kind_) {
      case Value::Kind::kNull: out += "null"; break;
      case Value::Kind::kBool: out += v.bool_ ? "true" : "false"; break;
      case Value::Kind::kNumber: out += v.text_; break;
      case Value::Kind::kString: string(out, v.text_); break;
      default: container(out, v, indent);
    }
  }

 private:
  static void container(std::string& out, const Value& v,
                        std::size_t indent) {
    const bool array = v.kind_ == Value::Kind::kArray;
    const std::size_t n = array ? v.items_.size() : v.members_.size();
    const bool flat = one_line(v);
    out += array ? '[' : '{';
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += flat ? ", " : ",";
      if (!flat) out.append("\n").append(indent + 1, ' ');
      if (!array) string(out, v.members_[i].first).append(": ");
      write(out, array ? v.items_[i] : v.members_[i].second, indent + 1);
    }
    if (!flat && n > 0) out.append("\n").append(indent, ' ');
    out += array ? ']' : '}';
  }

  /// One line, unless an array of containers is inside.
  static bool one_line(const Value& v) {
    if (v.kind_ == Value::Kind::kArray) {
      return std::none_of(v.items_.begin(), v.items_.end(), [](const Value& e) {
        return e.kind_ == Value::Kind::kArray ||
               e.kind_ == Value::Kind::kObject;
      });
    }
    return std::all_of(v.members_.begin(), v.members_.end(),
                       [](const auto& m) { return one_line(m.second); });
  }

  static std::string& string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
      const std::size_t i = kEscaped.find(c);
      if (i != std::string_view::npos) {
        out.append(1, '\\').append(1, kLetters[i]);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out += '"';
  }
};

std::string dump(const Value& v) {
  std::string out;
  Writer::write(out, v, 0);
  return out;
}

bool write_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out.flush()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool save(const std::string& path, const Value& doc) {
  return write_atomic(path, dump(doc) + "\n");
}

std::optional<Value> load(const std::string& path) {
  const auto text = read_file(path);
  if (!text.has_value()) return std::nullopt;
  return parse(*text);
}

std::uint64_t Fields::u64(std::string_view key) {
  const Value* v = object_.find(key);
  return latch<std::uint64_t>(ok_, v != nullptr ? v->u64() : std::nullopt);
}

double Fields::f64(std::string_view key) {
  const Value* v = object_.find(key);
  return latch<double>(ok_, v != nullptr ? v->f64() : std::nullopt);
}

std::string Fields::str(std::string_view key) {
  const Value* v = object_.find(key);
  return latch<std::string>(ok_, v != nullptr ? v->str() : nullptr);
}

const Array& Fields::array(std::string_view key) {
  static const Array kEmpty;
  const Value* v = object_.find(key);
  const Array* a = v != nullptr ? v->array() : nullptr;
  ok_ = ok_ && a != nullptr;
  return a != nullptr ? *a : kEmpty;
}

}  // namespace soc::json
