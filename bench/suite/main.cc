// ligra_suite: the repository benchmark (README.md).
//
//   ligra_suite [--workload NAME|all] [--seed N] [--seconds S]
//               [--trace 0|1] [--runs N] [--quick]
//               [--out FILE] [--tmp DIR]
//
// Builds each workload's inputs from --seed, measures it for --seconds,
// checks the answers, and prints every metric with its unit. The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics, or with the per-layer metrics
// under --trace 1. --out writes every run's numbers plus the environment.
// Exits 0 only when every answer was right and no op failed.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "parallel/scheduler.h"
#include "suite.h"
#include "util/cli.h"

namespace fs = std::filesystem;
using namespace suite;

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

struct workload_runs {
  std::string name;
  std::vector<run_output> runs;
};

// Every catalogue metric the run must report: all end-to-end ones, plus the
// per-layer ones when traced (a layer the workload bypasses reads 0).
void complete(run_output& r, bool traced, const std::string& workload) {
  for (const auto& m : kEndToEnd)
    if (!r.values.count(m.name))
      throw std::logic_error(workload + " reported no " + m.name);
  if (traced)
    for (const auto& m : kPerLayer) r.values.emplace(m.name, 0.0);
  for (auto& [name, v] : r.values)
    if (!std::isfinite(v)) {
      r.fail("non-finite value for " + name);
      v = 0.0;
    }
}

std::vector<double> values_of(const workload_runs& w, const std::string& m) {
  std::vector<double> v;
  for (const auto& r : w.runs) v.push_back(r.values.at(m));
  return v;
}

void print_run(const std::string& workload, size_t index, size_t total,
               const run_config& cfg, const run_output& r) {
  std::printf("== %s run %zu/%zu (seed %llu, %.3g s window%s): %s, "
              "%llu ops, %llu failed\n",
              workload.c_str(), index + 1, total,
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.traced ? ", traced" : "",
              r.failed == 0 ? "correct" : "WRONG",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  auto row = [&](const metric_def& m) {
    std::printf("  %-38s %16.6g %s\n", m.name, r.values.at(m.name), m.unit);
  };
  for (const auto& m : kEndToEnd) row(m);
  if (cfg.traced)
    for (const auto& m : kPerLayer) row(m);
  for (const auto& p : r.problems)
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), p.c_str());
  std::fflush(stdout);
}

// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}},
// metric values being medians over the workload's runs.
std::string result_line(const workload_runs& w, bool traced) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& r : w.runs) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::string s = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  const auto& defs = traced ? kPerLayer : kEndToEnd;
  for (size_t i = 0; i < defs.size(); i++) {
    if (i > 0) s += ", ";
    s += json_str(defs[i].name) + ": {\"value\": " +
         num(median(values_of(w, defs[i].name))) +
         ", \"unit\": " + json_str(defs[i].unit) + "}";
  }
  return s + "}}";
}

void write_out(const std::string& path, const std::vector<workload_runs>& all,
               const run_config& base, int runs) {
  std::ostringstream o;
  o << "{\"suite\": \"ligra_suite\", \"env\": {"
    << "\"seed\": " << base.seed << ", \"seconds\": " << num(base.seconds)
    << ", \"warmup\": " << num(base.warmup)
    << ", \"trace\": " << (base.traced ? 1 : 0)
    << ", \"quick\": " << (base.quick ? "true" : "false")
    << ", \"runs\": " << runs
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"workers\": " << ligra::parallel::num_workers()
    << ", \"compiler\": " << json_str(SUITE_COMPILER)
    << ", \"commit\": " << json_str(SUITE_COMMIT) << "}, \"workloads\": {";
  for (size_t wi = 0; wi < all.size(); wi++) {
    const auto& w = all[wi];
    o << (wi ? ", " : "") << json_str(w.name) << ": {\"runs\": [";
    for (size_t ri = 0; ri < w.runs.size(); ri++) {
      const auto& r = w.runs[ri];
      o << (ri ? ", " : "") << "{\"correct\": "
        << (r.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"problems\": [";
      for (size_t i = 0; i < r.problems.size(); i++)
        o << (i ? ", " : "") << json_str(r.problems[i]);
      o << "], \"metrics\": {";
      bool first = true;
      for (const auto& [name, v] : r.values) {
        o << (first ? "" : ", ") << json_str(name) << ": " << num(v);
        first = false;
      }
      o << "}}";
    }
    o << "], \"summary\": {";
    bool first = true;
    auto summarize = [&](const metric_def& m) {
      const auto v = values_of(w, m.name);
      o << (first ? "" : ", ") << json_str(m.name) << ": {\"median\": "
        << num(quantile(v, 0.5)) << ", \"q1\": " << num(quantile(v, 0.25))
        << ", \"q3\": " << num(quantile(v, 0.75))
        << ", \"unit\": " << json_str(m.unit) << "}";
      first = false;
    };
    for (const auto& m : kEndToEnd) summarize(m);
    if (base.traced)
      for (const auto& m : kPerLayer) summarize(m);
    o << "}}";
  }
  o << "}}\n";
  std::ofstream f(path);
  f << o.str();
  if (!f) throw std::runtime_error("cannot write " + path);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ligra_suite: %s\nusage: ligra_suite [--workload NAME|all] "
               "[--seed N] [--seconds S] [--trace 0|1] [--runs N] "
               "[--quick] [--out FILE] [--tmp DIR]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ligra::command_line cli(argc, argv);
  const std::set<std::string> known = {"workload", "seed", "seconds",
                                       "trace",    "runs", "quick",
                                       "out",      "tmp",  "help"};
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) a = a.substr(2);
    else if (a.rfind("-", 0) == 0) a = a.substr(1);
    else continue;
    if (!known.count(a.substr(0, a.find('='))))
      return usage(("unknown option " + std::string(argv[i])).c_str());
  }
  if (!cli.positional().empty()) return usage("unexpected argument");
  if (cli.has("help")) return usage("help");

  run_config base;
  base.quick = cli.has("quick");
  base.seed = static_cast<uint64_t>(cli.get_int("seed", 1));
  base.seconds = cli.get_double("seconds", base.quick ? 0.5 : 15.0);
  if (!(base.seconds > 0.0 && base.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  base.warmup = base.quick ? 0.25 : std::min(2.0, std::max(0.5, base.seconds / 5));
  const std::string trace = cli.get_string("trace", "0");
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  base.traced = trace == "1";
  const int runs = static_cast<int>(cli.get_int("runs", 1));
  if (runs < 1 || runs > 100) return usage("--runs must be in [1, 100]");

  const std::string which = cli.get_string("workload", "all");
  std::vector<workload_def> selected;
  for (const auto& w : kWorkloads)
    if (which == "all" || which == w.name) selected.push_back(w);
  if (selected.empty()) return usage(("unknown workload " + which).c_str());

  const fs::path tmp_root =
      cli.get_string("tmp", "ligra_suite_tmp." + std::to_string(getpid()));
  std::vector<workload_runs> all;
  bool ok = true;
  try {
    fs::create_directories(tmp_root);
    for (const auto& w : selected) {
      workload_runs wr{w.name, {}};
      for (int r = 0; r < runs; r++) {
        run_config cfg = base;
        cfg.workload = w.name;
        const fs::path dir = tmp_root / (std::string(w.name) + "." +
                                         std::to_string(r));
        fs::create_directories(dir);
        cfg.tmp = dir.string();
        run_output out = w.run(cfg);
        fs::remove_all(dir);
        complete(out, cfg.traced, w.name);
        ok = ok && out.failed == 0;
        print_run(w.name, static_cast<size_t>(r), static_cast<size_t>(runs),
                  cfg, out);
        wr.runs.push_back(std::move(out));
      }
      all.push_back(std::move(wr));
    }
    if (!cli.has("tmp")) fs::remove_all(tmp_root);
    if (cli.has("out")) write_out(cli.get_string("out"), all, base, runs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ligra_suite: %s\n", e.what());
    std::error_code ec;
    if (!cli.has("tmp")) fs::remove_all(tmp_root, ec);
    return 1;
  }

  if (all.size() == 1) {
    std::printf("%s\n", result_line(all[0], base.traced).c_str());
  } else {
    // Several workloads: one result object per workload, keyed by name.
    std::string s = "{";
    for (size_t i = 0; i < all.size(); i++)
      s += (i ? ", " : "") + json_str(all[i].name) + ": " +
           result_line(all[i], base.traced);
    std::printf("%s}\n", s.c_str());
  }
  return ok ? 0 : 1;
}
