#include "rel/value.h"

#include <charconv>
#include <cmath>
#include <ostream>

namespace maywsd::rel {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

/// Exact three-way order of an int and a double: no rounding of `i` to
/// double, so 2⁵³+1 stays above 2⁵³. They are equal only when `d` is
/// integral, inside the int64 range and equal after conversion. NaN sorts
/// above every int.
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d) || d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  double t = std::trunc(d);  // in [-2⁶³, 2⁶³): the conversion is defined
  int64_t ti = static_cast<int64_t>(t);
  if (i != ti) return i < ti ? -1 : 1;
  if (d == t) return 0;
  return d > t ? -1 : 1;
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return int_ == other.int_;
    if (is_int()) return CompareIntDouble(int_, other.double_) == 0;
    if (other.is_int()) return CompareIntDouble(other.int_, double_) == 0;
    // NaN equals itself, as in Compare, so a NaN cell deduplicates.
    return double_ == other.double_ ||
           (std::isnan(double_) && std::isnan(other.double_));
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ValueKind::kBottom:
    case ValueKind::kQuestion:
      return true;
    case ValueKind::kString:
      return sym_ == other.sym_;
    default:
      return false;  // unreachable: numerics handled above
  }
}

namespace {

/// Sort rank of a kind; numerics share a rank so they interleave by value.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kBottom:
      return 0;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return 1;
    case ValueKind::kString:
      return 2;
    case ValueKind::kQuestion:
      return 3;
  }
  return 4;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int lr = KindRank(kind_);
  int rr = KindRank(other.kind_);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (kind_) {
    case ValueKind::kBottom:
    case ValueKind::kQuestion:
      return 0;
    case ValueKind::kInt:
      if (other.is_int()) {
        if (int_ != other.int_) return int_ < other.int_ ? -1 : 1;
        return 0;
      }
      return CompareIntDouble(int_, other.double_);
    case ValueKind::kDouble: {
      if (other.is_int()) return -CompareIntDouble(other.int_, double_);
      double a = double_;
      double b = other.double_;
      // NaN sorts above every number (as against ints) and equals itself,
      // so the order stays total.
      bool a_nan = std::isnan(a);
      bool b_nan = std::isnan(b);
      if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
      if (a != b) return a < b ? -1 : 1;
      return 0;
    }
    case ValueKind::kString: {
      std::string_view a = AsStringView();
      std::string_view b = other.AsStringView();
      int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

bool Value::Satisfies(CmpOp op, const Value& other) const {
  // ⊥ and ? are equal only to themselves and support only (in)equality.
  bool special = is_bottom() || is_question() || other.is_bottom() ||
                 other.is_question();
  // Strings and numbers are incomparable except via <> (which holds).
  bool mixed = (is_string() && other.is_numeric()) ||
               (is_numeric() && other.is_string());
  if (special || mixed) {
    bool eq = (*this == other);
    switch (op) {
      case CmpOp::kEq:
        return eq;
      case CmpOp::kNe:
        return !eq;
      default:
        return false;
    }
  }
  int c = Compare(other);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

size_t Value::Hash() const {
  size_t seed = 0;
  switch (kind_) {
    case ValueKind::kBottom:
      return 0x6275a5c1u;
    case ValueKind::kQuestion:
      return 0x9d2e8f37u;
    case ValueKind::kInt:
      HashCombine(seed, std::hash<int64_t>{}(int_));
      return seed;
    case ValueKind::kDouble: {
      // Keep hash consistent with int==double equality: integral doubles
      // hash like the corresponding int. The range test comes first:
      // converting a double outside int64 (or ±inf, NaN) is undefined.
      // Every NaN is one value, whatever its sign and payload bits.
      double d = double_;
      if (std::isnan(d)) {
        HashCombine(seed, 0x7ff8000000000000u);
      } else if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
        HashCombine(seed, std::hash<int64_t>{}(static_cast<int64_t>(d)));
      } else {
        HashCombine(seed, std::hash<double>{}(d));
      }
      return seed;
    }
    case ValueKind::kString:
      HashCombine(seed, 0x51ed270bu);
      HashCombine(seed, std::hash<Symbol>{}(sym_));
      return seed;
  }
  return seed;
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Value::AppendTo(std::string& out) const {
  char buf[32] = {};
  std::to_chars_result r{};
  switch (kind_) {
    case ValueKind::kBottom:
      out += "\xe2\x8a\xa5";  // ⊥
      return;
    case ValueKind::kQuestion:
      out += '?';
      return;
    case ValueKind::kInt:
      r = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, r.ptr);
      return;
    case ValueKind::kDouble:
      // %.6g, which is what an ostream prints at its default precision.
      r = std::to_chars(buf, buf + sizeof(buf), double_,
                        std::chars_format::general, 6);
      out.append(buf, r.ptr);
      return;
    case ValueKind::kString:
      out += '\'';
      out += AsStringView();
      out += '\'';
      return;
  }
  out += "<invalid>";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace maywsd::rel
