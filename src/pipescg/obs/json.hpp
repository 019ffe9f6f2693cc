// Minimal JSON value: build, serialize, parse.
//
// The observability exporters (chrome_trace, report) construct their output
// as a Value tree and dump() it, and the tests parse() the emitted files
// back, so "everything we write is valid JSON" is enforced structurally
// rather than by string discipline.  Deliberately small: doubles only (JSON
// has one number type), insertion-ordered objects, no escapes beyond the
// JSON-required set, non-finite numbers serialize as null (JSON has no
// Inf/NaN).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pipescg::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double v) : type_(Type::kNumber), number_(v) {}
  Value(int v) : type_(Type::kNumber), number_(v) {}
  Value(std::int64_t v)
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Value(std::size_t v)
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw pipescg::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  // --- array ---------------------------------------------------------------
  void push_back(Value v);
  std::size_t size() const;  // array or object element count
  const Value& at(std::size_t i) const;
  Value& at(std::size_t i) {
    return const_cast<Value&>(static_cast<const Value&>(*this).at(i));
  }

  // --- object (insertion-ordered) -----------------------------------------
  /// Insert or overwrite `key`.
  void set(const std::string& key, Value v);
  bool contains(const std::string& key) const;
  /// Lookup; throws if the key is absent.
  const Value& at(const std::string& key) const;
  Value& at(const std::string& key) {
    return const_cast<Value&>(static_cast<const Value&>(*this).at(key));
  }
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serialize.  indent < 0: compact single line; otherwise pretty-print
  /// with `indent` spaces per level.
  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Shortest-round-trip decimal rendering of a finite double: the fewest
/// significant digits whose strtod() recovers the exact bit pattern, with
/// integers printed exactly.  Every numeric emitter in the observability
/// layer (JSON dumps, Prometheus exposition, trajectory entries) routes
/// through this so that equal doubles always render as equal bytes and
/// baseline diffs are never formatting noise.
std::string number_to_string(double v);

/// Parse a complete JSON document (rejects trailing garbage).  Throws
/// pipescg::Error with position context on malformed input.
Value parse(std::string_view text);

/// Write `v.dump(2)` to `path` (with trailing newline); throws on I/O error.
void write_file(const std::string& path, const Value& v);

/// Read and parse `path`; throws on I/O or parse error.
Value parse_file(const std::string& path);

}  // namespace pipescg::obs::json
