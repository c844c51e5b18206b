// The repository's one JSON codec: a value type, a whole-document parser,
// a writer, and the atomic file write they share.  Every JSON file src/
// and bench/ write or read goes through it: sweep shard results, the
// sweep manifest and merged report, BENCH_*.json perf reports and Chrome
// traces.
//
// The parser takes a document whole or not at all.  It rejects
// truncation, bytes after the top-level value, duplicate object keys,
// escapes JSON does not define, raw control bytes inside strings, numbers
// JSON does not spell ("01", "nan", "inf", "1.") or a double cannot hold
// ("1e999"), and nesting deeper than kMaxDepth.  A number keeps its
// spelling, so u64() reads an integer exactly up to 2^64-1, where a
// double would round above 2^53.
//
// The writer spells a double in its shortest round-trip form, so a
// written double parses back bit-exactly.  JSON cannot spell NaN or
// infinity, so constructing a Value from one is a SOC_CHECK failure: the
// writer never emits a file its own reader refuses.  Layout: a container
// goes on one line (`{"k": "x", "v": 1}`) unless it is an array of
// containers or an object that holds one; those put each member on its
// own line, indented one space per level (the sweep files are written
// often and read by programs, so indentation is kept to what shows the
// nesting).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace soc::json {

class Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

/// Deepest container nesting the parser accepts.
inline constexpr int kMaxDepth = 64;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  /// Exactly bool, so a stray pointer cannot turn into `true`.
  template <typename B>
    requires std::is_same_v<B, bool>
  Value(B b) : kind_(Kind::kBool), bool_(b) {}
  Value(std::uint64_t n);
  Value(double d);
  Value(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}
  Value(Array items) : kind_(Kind::kArray), items_(std::move(items)) {}
  Value(Object members) : kind_(Kind::kObject), members_(std::move(members)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Typed views: nullopt / nullptr when the value is of another kind.
  /// u64() also refuses any number that is not a plain integer literal
  /// within 64 bits.
  [[nodiscard]] std::optional<std::uint64_t> u64() const;
  [[nodiscard]] std::optional<double> f64() const;
  [[nodiscard]] const std::string* str() const {
    return kind_ == Kind::kString ? &text_ : nullptr;
  }
  [[nodiscard]] const Array* array() const {
    return kind_ == Kind::kArray ? &items_ : nullptr;
  }
  /// An object's member; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

 private:
  friend class Parser;
  friend class Writer;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  ///< a string's bytes, or a number's spelling
  Array items_;
  Object members_;
};

/// Parse one whole document; nullopt on any malformed input.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// The document's text, without a trailing newline.
[[nodiscard]] std::string dump(const Value& v);

/// Write `content` to `path` through `path + ".tmp"` and a rename, so a
/// reader (a resuming sweep, a trace viewer) only ever sees no file or a
/// whole one — a writer killed mid-write leaves nothing torn.  False on
/// I/O error.
bool write_atomic(const std::string& path, std::string_view content);

/// The whole file; nullopt when unreadable.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// write_atomic of dump(doc) and a final newline.
bool save(const std::string& path, const Value& doc);

/// The whole file parsed; nullopt when unreadable or malformed.
[[nodiscard]] std::optional<Value> load(const std::string& path);

/// Typed reads of one object's members that latch the first miss: a key
/// that is absent or holds another kind clears ok() and reads as zero (an
/// empty string or array), so a reader takes every field and checks once.
class Fields {
 public:
  explicit Fields(const Value& object) : object_(object) {}

  std::uint64_t u64(std::string_view key);
  double f64(std::string_view key);
  std::string str(std::string_view key);
  const Array& array(std::string_view key);
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const Value& object_;
  bool ok_ = true;
};

}  // namespace soc::json
