#include "obs/report.h"

#include <array>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/profiler.h"
#include "obs/span.h"

namespace lz::obs {

// --- Json: constructors -------------------------------------------------------

Json Json::boolean(bool v) {
  Json j(Kind::kBool);
  j.bool_ = v;
  return j;
}

Json Json::number(u64 v) {
  Json j(Kind::kUint);
  j.uint_ = v;
  return j;
}

Json Json::number(i64 v) {
  Json j(Kind::kInt);
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j(Kind::kDouble);
  j.double_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j(Kind::kString);
  j.string_ = std::move(v);
  return j;
}

Json Json::array() { return Json(Kind::kArray); }

Json Json::object() { return Json(Kind::kObject); }

// --- Json: access -------------------------------------------------------------

Json& Json::set(std::string key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  return kind_ == Kind::kArray ? elements_.size() : members_.size();
}

Json& Json::push(Json value) {
  elements_.push_back(std::move(value));
  return *this;
}

u64 Json::as_u64() const {
  switch (kind_) {
    case Kind::kUint: return uint_;
    case Kind::kInt: return static_cast<u64>(int_);
    case Kind::kDouble: return static_cast<u64>(double_);
    default: return 0;
  }
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kDouble: return double_;
    default: return 0;
  }
}

// --- Json: serialisation ------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Json::dump_to(std::string& out) const {
  char buf[40];
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kUint:
      std::snprintf(buf, sizeof buf, "%" PRIu64, uint_);
      out += buf;
      return;
    case Kind::kInt:
      std::snprintf(buf, sizeof buf, "%" PRId64, int_);
      out += buf;
      return;
    case Kind::kDouble:
      // %.17g round-trips IEEE doubles exactly and is deterministic for a
      // given libc, which is all the golden-file tests need.
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out += buf;
      return;
    case Kind::kString:
      append_escaped(out, string_);
      return;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& e : elements_) {
        if (!first) out += ',';
        first = false;
        e.dump_to(out);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, k);
        out += ':';
        v.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// --- Json: parser -------------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  Json fail() {
    failed = true;
    return Json{};
  }

  Json parse_value() {
    if (failed) return Json{};
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        return literal("true") ? Json::boolean(true) : fail();
      case 'f':
        return literal("false") ? Json::boolean(false) : fail();
      case 'n':
        return literal("null") ? Json{} : fail();
      default: return parse_number();
    }
  }

  bool literal(std::string_view word) {
    skip_ws();
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  Json parse_string() {
    if (!eat('"')) return fail();
    std::string s;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail();
        const char esc = text[pos++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail();
            const unsigned long cp =
                std::strtoul(std::string(text.substr(pos, 4)).c_str(),
                             nullptr, 16);
            pos += 4;
            c = static_cast<char>(cp);  // BMP-ASCII is all we emit
            break;
          }
          default: return fail();
        }
      }
      s += c;
    }
    if (!eat('"')) return fail();
    return Json::string(std::move(s));
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos;
    bool is_double = false;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) return fail();
    const std::string token(text.substr(start, pos - start));
    if (is_double) return Json::number(std::strtod(token.c_str(), nullptr));
    if (token[0] == '-') {
      return Json::number(
          static_cast<i64>(std::strtoll(token.c_str(), nullptr, 10)));
    }
    return Json::number(
        static_cast<u64>(std::strtoull(token.c_str(), nullptr, 10)));
  }

  Json parse_array() {
    if (!eat('[')) return fail();
    Json arr = Json::array();
    if (eat(']')) return arr;
    while (!failed) {
      arr.push(parse_value());
      if (eat(']')) return arr;
      if (!eat(',')) return fail();
    }
    return fail();
  }

  Json parse_object() {
    if (!eat('{')) return fail();
    Json obj = Json::object();
    if (eat('}')) return obj;
    while (!failed) {
      Json key = parse_string();
      if (failed || !eat(':')) return fail();
      obj.set(key.as_string(), parse_value());
      if (eat('}')) return obj;
      if (!eat(',')) return fail();
    }
    return fail();
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.failed || p.pos != text.size()) return std::nullopt;
  return v;
}

// --- Report -------------------------------------------------------------------

void Report::add_result(std::string key, double value) {
  results_.emplace_back(std::move(key), Json::number(value));
}

void Report::add_result(std::string key, u64 value) {
  results_.emplace_back(std::move(key), Json::number(value));
}

void Report::add_cycles(std::string kind_name, u64 cycles) {
  cycles_by_kind_.emplace_back(std::move(kind_name), cycles);
}

void Report::add_counters(const Snapshot& snapshot) {
  counters_.insert(counters_.end(), snapshot.begin(), snapshot.end());
}

void Report::add_host_counters(const Snapshot& snapshot) {
  host_counters_.insert(host_counters_.end(), snapshot.begin(),
                        snapshot.end());
}

void Report::add_histograms(std::vector<HistogramStats> stats) {
  histograms_.insert(histograms_.end(),
                     std::make_move_iterator(stats.begin()),
                     std::make_move_iterator(stats.end()));
}

namespace {

// A flat object of (name, number) pairs: counters, cycle kinds, samples.
template <typename Pairs>
Json numbers(const Pairs& pairs) {
  Json obj = Json::object();
  for (const auto& [k, v] : pairs) obj.set(k, Json::number(v));
  return obj;
}

// A histogram row; the time-series snapshots carry only the count and
// percentiles.
Json histogram_row(const HistogramStats& h, bool full) {
  Json row = Json::object();
  row.set("count", Json::number(h.count));
  if (full) {
    row.set("min", Json::number(h.min));
    row.set("max", Json::number(h.max));
    row.set("mean", Json::number(h.mean));
  }
  row.set("p50", Json::number(h.p50));
  row.set("p90", Json::number(h.p90));
  row.set("p99", Json::number(h.p99));
  return row;
}

}  // namespace

void Report::set_profile(const Profiler& profiler) {
  Json prof = Json::object();
  prof.set("period", Json::number(profiler.period()));
  prof.set("samples", Json::number(profiler.samples()));
  prof.set("dropped_keys", Json::number(profiler.dropped_keys()));
  Json by_domain = Json::object();
  for (const auto& slice : profiler.by_domain()) {
    char key[32];
    std::snprintf(key, sizeof key, "vmid%u.asid%u", slice.vmid, slice.asid);
    by_domain.set(key, Json::number(slice.samples));
  }
  prof.set("by_domain", std::move(by_domain));
  const std::array<u64, 3> by_el = profiler.by_el();
  Json els = Json::object();
  els.set("el0", Json::number(by_el[0]));
  els.set("el1", Json::number(by_el[1]));
  els.set("el2", Json::number(by_el[2]));
  prof.set("by_el", std::move(els));
  Json hot = Json::object();
  for (const auto& [pc, n] : profiler.hotspots(/*top_n=*/32)) {
    char key[24];
    std::snprintf(key, sizeof key, "0x%" PRIx64, pc);
    hot.set(key, Json::number(n));
  }
  prof.set("hotspots", std::move(hot));
  profile_ = std::move(prof);
}

void Report::set_timeseries(const TimeSeries& series) {
  Json section = Json::object();
  section.set("period", Json::number(series.period()));
  section.set("dropped", Json::number(series.dropped()));
  Json snaps = Json::array();
  for (const auto& snap : series.samples()) {
    Json row = Json::object();
    row.set("ts", Json::number(snap.ts));
    row.set("counters", numbers(snap.counters));
    Json hists = Json::object();
    for (const auto& h : snap.histograms) {
      hists.set(h.name, histogram_row(h, false));
    }
    row.set("histograms", std::move(hists));
    snaps.push(std::move(row));
  }
  section.set("snapshots", std::move(snaps));
  timeseries_ = std::move(section);
}

void Report::set_spans(const SpanTracer& tracer) {
  Json section = Json::object();
  section.set("completed", Json::number(tracer.completed()));
  section.set("dropped", Json::number(tracer.dropped()));
  section.set("max_depth", Json::number(tracer.max_depth()));
  Json by_kind = Json::object();
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount);
       ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    // Qualified: the Report::to_string() member hides the namespace-scope
    // overload set inside member definitions.
    by_kind.set(lz::obs::to_string(kind),
                Json::number(tracer.completed_of(kind)));
  }
  section.set("by_kind", std::move(by_kind));
  spans_ = std::move(section);
}

Json Report::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json::string(std::string(kSchema)));
  doc.set("bench", Json::string(bench_));

  Json results = Json::object();
  for (const auto& [k, v] : results_) results.set(k, v);
  doc.set("results", std::move(results));

  Json cycles = Json::object();
  cycles.set("total", Json::number(cycles_total_));
  cycles.set("by_kind", numbers(cycles_by_kind_));
  doc.set("cycles", std::move(cycles));
  doc.set("counters", numbers(counters_));

  Json hists = Json::object();
  for (const auto& h : histograms_) hists.set(h.name, histogram_row(h, true));
  doc.set("histograms", std::move(hists));

  if (profile_) doc.set("profile", *profile_);
  if (timeseries_) doc.set("timeseries", *timeseries_);
  if (spans_) doc.set("spans", *spans_);

  // Host-counter section last: its values are outside the simulated-clock
  // determinism contract (see add_host_counters), so tooling that compares
  // simulated work across configs strips exactly this one member.
  if (!host_counters_.empty()) doc.set("host", numbers(host_counters_));
  return doc;
}

bool Report::write(const std::string& path) const {
  return write_text(path, to_string() + '\n');
}

namespace {

// `obj` is an object whose `fields` are all present and pass `is`.
bool has(const Json* obj, std::initializer_list<const char*> fields,
         bool (Json::*is)() const = &Json::is_number) {
  if (obj == nullptr || !obj->is_object()) return false;
  for (const char* f : fields) {
    const Json* v = obj->find(f);
    if (v == nullptr || !(v->*is)()) return false;
  }
  return true;
}

// `obj` is an object of rows that each have all of `fields` (an empty
// list: of numbers).
bool all_rows(const Json* obj, std::initializer_list<const char*> fields) {
  if (obj == nullptr || !obj->is_object()) return false;
  for (const auto& [name, row] : obj->members()) {
    if (fields.size() == 0 ? !row.is_number() : !has(&row, fields)) {
      return false;
    }
  }
  return true;
}

// "histograms" is required; "profile", "timeseries", "spans" and "host"
// are optional, and when present they must match the schema exactly
// (report_check gates on this).
bool validate_sections(const Json& doc) {
  if (!all_rows(doc.find("histograms"),
                {"count", "min", "max", "mean", "p50", "p90", "p99"})) {
    return false;
  }
  const Json* prof = doc.find("profile");
  if (prof != nullptr &&
      !(has(prof, {"period", "samples", "dropped_keys"}) &&
        has(prof, {"by_domain", "by_el", "hotspots"}, &Json::is_object) &&
        has(prof->find("by_el"), {"el0", "el1", "el2"}))) {
    return false;
  }
  const Json* ts = doc.find("timeseries");
  if (ts != nullptr) {
    if (!has(ts, {"period", "dropped"})) return false;
    const Json* snaps = ts->find("snapshots");
    if (snaps == nullptr || !snaps->is_array()) return false;
    for (const Json& snap : snaps->elements()) {
      if (!has(&snap, {"ts"}) || !all_rows(snap.find("counters"), {}) ||
          !all_rows(snap.find("histograms"), {"count", "p50", "p90", "p99"})) {
        return false;
      }
    }
  }
  const Json* spans = doc.find("spans");
  if (spans != nullptr && !(has(spans, {"completed", "dropped", "max_depth"}) &&
                            all_rows(spans->find("by_kind"), {}))) {
    return false;
  }
  // "host": flat map of host-counter values.
  const Json* host = doc.find("host");
  return host == nullptr || all_rows(host, {});
}

}  // namespace

bool Report::validate(const Json& doc) {
  if (!doc.is_object()) return false;
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) return false;
  if (schema->as_string() != kSchema || !validate_sections(doc)) return false;
  const Json* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    return false;
  }
  const Json* results = doc.find("results");
  if (results == nullptr || !results->is_object()) return false;
  const Json* cycles = doc.find("cycles");
  if (cycles == nullptr || !cycles->is_object() ||
      cycles->find("total") == nullptr || cycles->find("by_kind") == nullptr ||
      !cycles->find("by_kind")->is_object()) {
    return false;
  }
  const Json* counters = doc.find("counters");
  return counters != nullptr && counters->is_object();
}

}  // namespace lz::obs
