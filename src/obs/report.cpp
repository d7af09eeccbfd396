#include "obs/report.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace lz::obs {

// --- Json: constructors -------------------------------------------------------

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(u64 v) {
  Json j;
  j.kind_ = Kind::kUint;
  j.uint_ = v;
  return j;
}

Json Json::number(i64 v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

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

void Report::set_profile(const Profiler& profiler) {
  ProfileSection p;
  p.period = profiler.period();
  p.samples = profiler.samples();
  p.dropped_keys = profiler.dropped_keys();
  for (const auto& slice : profiler.by_domain()) {
    char key[32];
    std::snprintf(key, sizeof key, "vmid%u.asid%u", slice.vmid, slice.asid);
    p.by_domain.emplace_back(key, slice.samples);
  }
  p.by_el = profiler.by_el();
  p.hotspots = profiler.hotspots(/*top_n=*/32);
  profile_ = std::move(p);
}

void Report::set_timeseries(const TimeSeries& series) {
  TimeSeriesSection section;
  section.period = series.period();
  section.dropped = series.dropped();
  for (TimeSeriesSample& sample : series.samples()) {
    TimeSeriesSection::Snap snap;
    snap.ts = sample.ts;
    snap.counters = std::move(sample.counters);
    snap.histograms = std::move(sample.histograms);
    section.snapshots.push_back(std::move(snap));
  }
  timeseries_ = std::move(section);
}

void Report::set_spans(const SpanTracer& tracer) {
  SpanSection section;
  section.completed = tracer.completed();
  section.dropped = tracer.dropped();
  section.max_depth = tracer.max_depth();
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount);
       ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    // Qualified: the Report::to_string() member hides the namespace-scope
    // overload set inside member definitions.
    section.by_kind.emplace_back(lz::obs::to_string(kind),
                                 tracer.completed_of(kind));
  }
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
  Json by_kind = Json::object();
  for (const auto& [k, v] : cycles_by_kind_) by_kind.set(k, Json::number(v));
  cycles.set("by_kind", std::move(by_kind));
  doc.set("cycles", std::move(cycles));

  Json counters = Json::object();
  for (const auto& [k, v] : counters_) counters.set(k, Json::number(v));
  doc.set("counters", std::move(counters));

  Json hists = Json::object();
  for (const auto& h : histograms_) {
    Json row = Json::object();
    row.set("count", Json::number(h.count));
    row.set("min", Json::number(h.min));
    row.set("max", Json::number(h.max));
    row.set("mean", Json::number(h.mean));
    row.set("p50", Json::number(h.p50));
    row.set("p90", Json::number(h.p90));
    row.set("p99", Json::number(h.p99));
    hists.set(h.name, std::move(row));
  }
  doc.set("histograms", std::move(hists));

  if (profile_.has_value()) {
    const ProfileSection& p = *profile_;
    Json prof = Json::object();
    prof.set("period", Json::number(p.period));
    prof.set("samples", Json::number(p.samples));
    prof.set("dropped_keys", Json::number(p.dropped_keys));
    Json by_domain = Json::object();
    for (const auto& [k, v] : p.by_domain) by_domain.set(k, Json::number(v));
    prof.set("by_domain", std::move(by_domain));
    Json by_el = Json::object();
    by_el.set("el0", Json::number(p.by_el[0]));
    by_el.set("el1", Json::number(p.by_el[1]));
    by_el.set("el2", Json::number(p.by_el[2]));
    prof.set("by_el", std::move(by_el));
    Json hot = Json::object();
    for (const auto& [pc, n] : p.hotspots) {
      char key[24];
      std::snprintf(key, sizeof key, "0x%" PRIx64, pc);
      hot.set(key, Json::number(n));
    }
    prof.set("hotspots", std::move(hot));
    doc.set("profile", std::move(prof));
  }

  if (timeseries_.has_value()) {
    const TimeSeriesSection& ts = *timeseries_;
    Json section = Json::object();
    section.set("period", Json::number(ts.period));
    section.set("dropped", Json::number(ts.dropped));
    Json snaps = Json::array();
    for (const auto& snap : ts.snapshots) {
      Json row = Json::object();
      row.set("ts", Json::number(snap.ts));
      Json counters = Json::object();
      for (const auto& [k, v] : snap.counters) counters.set(k, Json::number(v));
      row.set("counters", std::move(counters));
      Json hists = Json::object();
      for (const auto& h : snap.histograms) {
        Json hrow = Json::object();
        hrow.set("count", Json::number(h.count));
        hrow.set("p50", Json::number(h.p50));
        hrow.set("p90", Json::number(h.p90));
        hrow.set("p99", Json::number(h.p99));
        hists.set(h.name, std::move(hrow));
      }
      row.set("histograms", std::move(hists));
      snaps.push(std::move(row));
    }
    section.set("snapshots", std::move(snaps));
    doc.set("timeseries", std::move(section));
  }

  if (spans_.has_value()) {
    const SpanSection& s = *spans_;
    Json section = Json::object();
    section.set("completed", Json::number(s.completed));
    section.set("dropped", Json::number(s.dropped));
    section.set("max_depth", Json::number(s.max_depth));
    Json by_kind = Json::object();
    for (const auto& [k, v] : s.by_kind) by_kind.set(k, Json::number(v));
    section.set("by_kind", std::move(by_kind));
    doc.set("spans", std::move(section));
  }

  // Host-counter section last: its values are outside the simulated-clock
  // determinism contract (see add_host_counters), so tooling that compares
  // simulated work across configs strips exactly this one member.
  if (!host_counters_.empty()) {
    Json host = Json::object();
    for (const auto& [k, v] : host_counters_) host.set(k, Json::number(v));
    doc.set("host", std::move(host));
  }
  return doc;
}

bool Report::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string json = to_string();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.put('\n');
  return static_cast<bool>(f);
}

namespace {

// Every member of `obj` must be an object containing all of `fields`, each
// a number.
bool all_rows_have_numbers(const Json& obj,
                           std::initializer_list<const char*> fields) {
  for (const auto& [name, row] : obj.members()) {
    (void)name;
    if (!row.is_object()) return false;
    for (const char* f : fields) {
      const Json* v = row.find(f);
      if (v == nullptr || !v->is_number()) return false;
    }
  }
  return true;
}

// Every member of `obj` must be a number (counter maps).
bool all_members_are_numbers(const Json& obj) {
  for (const auto& [name, v] : obj.members()) {
    (void)name;
    if (!v.is_number()) return false;
  }
  return true;
}

// "histograms" is required; "profile", "timeseries", "spans" and "host"
// are optional, and when present they must match the schema exactly
// (report_check gates on this).
bool validate_sections(const Json& doc) {
  const Json* hists = doc.find("histograms");
  if (hists == nullptr || !hists->is_object() ||
      !all_rows_have_numbers(
          *hists, {"count", "min", "max", "mean", "p50", "p90", "p99"})) {
    return false;
  }
  const Json* prof = doc.find("profile");
  if (prof != nullptr) {
    if (!prof->is_object()) return false;
    for (const char* f : {"period", "samples", "dropped_keys"}) {
      const Json* v = prof->find(f);
      if (v == nullptr || !v->is_number()) return false;
    }
    for (const char* f : {"by_domain", "by_el", "hotspots"}) {
      const Json* v = prof->find(f);
      if (v == nullptr || !v->is_object()) return false;
    }
    for (const char* f : {"el0", "el1", "el2"}) {
      const Json* v = prof->find("by_el")->find(f);
      if (v == nullptr || !v->is_number()) return false;
    }
  }
  const Json* ts = doc.find("timeseries");
  if (ts != nullptr) {
    if (!ts->is_object()) return false;
    for (const char* f : {"period", "dropped"}) {
      const Json* v = ts->find(f);
      if (v == nullptr || !v->is_number()) return false;
    }
    const Json* snaps = ts->find("snapshots");
    if (snaps == nullptr || !snaps->is_array()) return false;
    for (const Json& snap : snaps->elements()) {
      if (!snap.is_object()) return false;
      const Json* t = snap.find("ts");
      if (t == nullptr || !t->is_number()) return false;
      const Json* counters = snap.find("counters");
      if (counters == nullptr || !counters->is_object() ||
          !all_members_are_numbers(*counters)) {
        return false;
      }
      const Json* hists = snap.find("histograms");
      if (hists == nullptr || !hists->is_object() ||
          !all_rows_have_numbers(*hists, {"count", "p50", "p90", "p99"})) {
        return false;
      }
    }
  }
  const Json* spans = doc.find("spans");
  if (spans != nullptr) {
    if (!spans->is_object()) return false;
    for (const char* f : {"completed", "dropped", "max_depth"}) {
      const Json* v = spans->find(f);
      if (v == nullptr || !v->is_number()) return false;
    }
    const Json* by_kind = spans->find("by_kind");
    if (by_kind == nullptr || !by_kind->is_object() ||
        !all_members_are_numbers(*by_kind)) {
      return false;
    }
  }
  // "host": flat map of host-counter values.
  const Json* host = doc.find("host");
  if (host != nullptr &&
      (!host->is_object() || !all_members_are_numbers(*host))) {
    return false;
  }
  return true;
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
