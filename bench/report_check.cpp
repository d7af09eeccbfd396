// report_check — offline validator for lz.bench.report documents.
//
// Usage: report_check <report.json>...
//
// Parses each file with the same obs::Json parser the benches serialise
// with and runs obs::Report::validate on it, so ci.sh can round-trip every
// artifact a bench emitted and fail loudly on schema drift. Exits 0 only
// if every file validates.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/report.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <report.json>...\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream f(argv[i], std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const auto doc = lz::obs::Json::parse(buf.str());
    if (!doc.has_value()) {
      std::fprintf(stderr, "%s: malformed JSON\n", argv[i]);
      ++failures;
      continue;
    }
    if (!lz::obs::Report::validate(*doc)) {
      std::fprintf(stderr, "%s: schema validation failed\n", argv[i]);
      ++failures;
      continue;
    }
    const auto* schema = doc->find("schema");
    const auto* bench = doc->find("bench");
    std::printf("%s: ok (%s, bench=%s)\n", argv[i],
                schema->as_string().c_str(), bench->as_string().c_str());
  }
  return failures == 0 ? 0 : 1;
}
