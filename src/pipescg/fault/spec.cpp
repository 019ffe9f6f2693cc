#include "pipescg/fault/spec.hpp"

#include <cstdlib>

#include "pipescg/base/error.hpp"

namespace pipescg::fault {
namespace {

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

std::int64_t parse_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 0);
  PIPESCG_CHECK(end && *end == '\0' && !v.empty(),
                "fault spec: " + key + " expects an integer, got '" + v + "'");
  return static_cast<std::int64_t>(r);
}

double parse_real(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  PIPESCG_CHECK(end && *end == '\0' && !v.empty(),
                "fault spec: " + key + " expects a number, got '" + v + "'");
  return r;
}

FaultKind parse_kind(const std::string& v) {
  if (v == "slow") return FaultKind::kSlow;
  if (v == "sdc") return FaultKind::kSdc;
  if (v == "stall") return FaultKind::kStall;
  if (v == "die") return FaultKind::kDie;
  PIPESCG_FAIL("fault spec: unknown kind '" + v +
               "' (expected slow|sdc|stall|die)");
}

FaultTarget parse_target(const std::string& v) {
  if (v == "spmv") return FaultTarget::kSpmv;
  if (v == "pc") return FaultTarget::kPc;
  if (v == "allreduce") return FaultTarget::kAllreduce;
  if (v == "halo") return FaultTarget::kHalo;
  PIPESCG_FAIL("fault spec: unknown target '" + v +
               "' (expected spmv|pc|allreduce|halo)");
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kSdc:
      return "sdc";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDie:
      return "die";
  }
  return "?";
}

const char* to_string(FaultTarget target) {
  switch (target) {
    case FaultTarget::kSpmv:
      return "spmv";
    case FaultTarget::kPc:
      return "pc";
    case FaultTarget::kAllreduce:
      return "allreduce";
    case FaultTarget::kHalo:
      return "halo";
  }
  return "?";
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  bool have_kind = false;
  bool have_target = false;
  for (const std::string& raw : split(text, ':')) {
    const std::string field = trimmed(raw);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    PIPESCG_CHECK(eq != std::string::npos,
                  "fault spec: field '" + field + "' is not key=value");
    const std::string key = trimmed(field.substr(0, eq));
    const std::string value = trimmed(field.substr(eq + 1));
    if (key == "kind") {
      spec.kind = parse_kind(value);
      have_kind = true;
    } else if (key == "rank") {
      spec.rank = static_cast<int>(parse_int(key, value));
      PIPESCG_CHECK(spec.rank >= 0, "fault spec: rank must be >= 0");
    } else if (key == "target") {
      spec.target = parse_target(value);
      have_target = true;
    } else if (key == "iter") {
      const std::int64_t v = parse_int(key, value);
      PIPESCG_CHECK(v >= 0, "fault spec: iter must be >= 0");
      spec.iter = static_cast<std::uint64_t>(v);
    } else if (key == "bits") {
      spec.bits = static_cast<int>(parse_int(key, value));
      PIPESCG_CHECK(spec.bits >= 1 && spec.bits <= 64,
                    "fault spec: bits must be in [1, 64]");
    } else if (key == "bit") {
      spec.bit = static_cast<int>(parse_int(key, value));
      PIPESCG_CHECK(spec.bit >= 0 && spec.bit <= 63,
                    "fault spec: bit must be in [0, 63]");
    } else if (key == "factor") {
      spec.factor = parse_real(key, value);
      PIPESCG_CHECK(spec.factor >= 1.0, "fault spec: factor must be >= 1");
    } else if (key == "ms") {
      spec.ms = parse_real(key, value);
      PIPESCG_CHECK(spec.ms >= 0.0, "fault spec: ms must be >= 0");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else {
      PIPESCG_FAIL("fault spec: unknown key '" + key +
                   "' (kind|rank|target|iter|bits|bit|factor|ms|seed)");
    }
  }
  PIPESCG_CHECK(have_kind, "fault spec '" + text + "' is missing kind=");
  // A stall models a late collective contribution unless told otherwise.
  if (!have_target && spec.kind == FaultKind::kStall)
    spec.target = FaultTarget::kAllreduce;
  return spec;
}

std::vector<FaultSpec> parse_fault_specs(const std::string& text) {
  std::vector<FaultSpec> specs;
  for (const std::string& part : split(text, ';')) {
    if (trimmed(part).empty()) continue;
    specs.push_back(parse_fault_spec(part));
  }
  return specs;
}

}  // namespace pipescg::fault
