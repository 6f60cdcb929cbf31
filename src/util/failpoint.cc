#include "util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/log.h"
#include "util/rng.h"

namespace ligra::util::failpoint {

namespace detail {
std::atomic<int> num_armed{0};
}  // namespace detail

namespace {

struct registry_t {
  std::mutex mu;
  std::unordered_map<std::string, spec> sites;
  std::unordered_map<std::string, uint64_t> hit_counts;
  std::unordered_set<std::string> warned_unknown;  // one warning per site
  sequential_rng rng{0xfa11fa11};  // probability draws; deterministic
};

registry_t& reg() {
  static registry_t r;
  return r;
}

// Every LIGRA_FAILPOINT site in the tree. configure() warns on names
// outside this list so a typo'd LIGRA_FAILPOINTS entry is visible instead
// of silently never firing.
constexpr const char* kKnownSites[] = {
    "cache.insert",       "checkpoint.write",  "dynamic.apply.alloc",
    "dynamic.compact",    "epoch.fill",        "executor.dispatch",
    "graph_io.read",
    "net.accept",         "net.read",          "net.write",
    "recovery.replay",    "registry.load.alloc",
    "wal.append",         "wal.fsync",
};

bool is_known_site(const std::string& site) {
  if (site.rfind("test.", 0) == 0) return true;  // reserved for unit tests
  for (const char* s : kKnownSites)
    if (site == s) return true;
  return false;
}

// Arms sites from the LIGRA_FAILPOINTS env var once, before main() runs, so
// env-armed sites fire without any in-process configuration call.
struct env_loader {
  env_loader() {
    if (!compiled_in()) return;
    const char* e = std::getenv("LIGRA_FAILPOINTS");
    if (e == nullptr || *e == '\0') return;
    try {
      configure(e);
    } catch (const std::exception& ex) {
      obs::log_warn("failpoint",
                    std::string("LIGRA_FAILPOINTS ignored: ") + ex.what());
    }
  }
};
const env_loader g_env_loader;

spec parse_one(const std::string& site, const std::string& rhs) {
  spec s;
  size_t pos = 0;
  auto next_part = [&]() -> std::string {
    if (pos >= rhs.size()) return {};
    size_t comma = rhs.find(',', pos);
    std::string part = rhs.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
    pos = comma == std::string::npos ? rhs.size() : comma + 1;
    return part;
  };
  std::string act = next_part();
  auto bad = [&](const std::string& why) {
    throw std::invalid_argument("failpoint spec for '" + site + "': " + why +
                                " in '" + rhs + "'");
  };
  auto paren_arg = [&](const std::string& part) -> std::string {
    size_t open = part.find('(');
    if (open == std::string::npos) return {};
    if (part.back() != ')') bad("unbalanced parentheses");
    return part.substr(open + 1, part.size() - open - 2);
  };
  if (act == "off") {
    s.act = action::off;
  } else if (act == "throw" || act.rfind("throw(", 0) == 0) {
    s.act = action::throw_error;
    s.message = paren_arg(act);
  } else if (act == "fail") {
    s.act = action::fail;
  } else if (act == "crash") {
    s.act = action::crash;
  } else if (act.rfind("sleep(", 0) == 0) {
    s.act = action::sleep_ms;
    try {
      s.sleep_millis = static_cast<uint32_t>(std::stoul(paren_arg(act)));
    } catch (...) {
      bad("bad sleep duration");
    }
  } else {
    bad("unknown action '" + act + "'");
  }
  for (std::string part = next_part(); !part.empty(); part = next_part()) {
    if (part.rfind("p=", 0) == 0) {
      try {
        s.probability = std::stod(part.substr(2));
      } catch (...) {
        bad("bad probability");
      }
      if (s.probability < 0.0 || s.probability > 1.0)
        bad("probability outside [0, 1]");
    } else if (part.rfind("count=", 0) == 0) {
      try {
        s.count = std::stoll(part.substr(6));
      } catch (...) {
        bad("bad count");
      }
      if (s.count < 0) bad("negative count");
    } else if (part.rfind("after=", 0) == 0) {
      try {
        s.skip = std::stoll(part.substr(6));
      } catch (...) {
        bad("bad after");
      }
      if (s.skip < 0) bad("negative after");
    } else {
      bad("unknown option '" + part + "'");
    }
  }
  return s;
}

}  // namespace

void arm(const std::string& site, spec s) {
  if (site.empty()) throw std::invalid_argument("failpoint: empty site name");
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(site);
  if (s.act == action::off || s.count == 0) {
    if (it != r.sites.end()) {
      r.sites.erase(it);
      detail::num_armed.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  if (it == r.sites.end()) {
    r.sites.emplace(site, std::move(s));
    detail::num_armed.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second = std::move(s);
  }
}

bool disarm(const std::string& site) {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.sites.erase(site) == 0) return false;
  detail::num_armed.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void disarm_all() {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  detail::num_armed.fetch_sub(static_cast<int>(r.sites.size()),
                              std::memory_order_relaxed);
  r.sites.clear();
}

void configure(const std::string& spec_string) {
  size_t pos = 0;
  while (pos < spec_string.size()) {
    size_t semi = spec_string.find(';', pos);
    std::string entry = spec_string.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? spec_string.size() : semi + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("failpoint spec entry without 'site=': '" +
                                  entry + "'");
    std::string site = entry.substr(0, eq);
    arm(site, parse_one(site, entry.substr(eq + 1)));
    if (!is_known_site(site)) {
      auto& r = reg();
      bool first = false;
      {
        std::lock_guard<std::mutex> lock(r.mu);
        first = r.warned_unknown.insert(site).second;
      }
      // The site name appears exactly once in the line (no extra field):
      // FailpointTest.ConfigureWarnsOnceOnUnknownSites counts occurrences.
      if (first)
        obs::log_warn("failpoint", "unknown failpoint site '" + site +
                                       "' (armed, but no such site exists "
                                       "in this build)");
    }
  }
}

std::vector<std::pair<std::string, spec>> list() {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  return {r.sites.begin(), r.sites.end()};
}

uint64_t hits(const std::string& site) {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.hit_counts.find(site);
  return it == r.hit_counts.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, uint64_t>> all_hits() {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  return {r.hit_counts.begin(), r.hit_counts.end()};
}

int armed_count() {
  return detail::num_armed.load(std::memory_order_relaxed);
}

std::vector<std::string> known_sites() {
  std::vector<std::string> out(std::begin(kKnownSites), std::end(kKnownSites));
  std::sort(out.begin(), out.end());
  return out;
}

namespace detail {

bool eval_slow(const char* site) {
  spec fired;
  {
    auto& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.sites.find(site);
    if (it == r.sites.end()) return false;
    spec& s = it->second;
    if (s.skip > 0) {
      s.skip--;
      return false;
    }
    if (s.probability < 1.0 && r.rng.uniform() >= s.probability) return false;
    fired = s;
    r.hit_counts[site]++;
    if (s.count > 0 && --s.count == 0) {
      r.sites.erase(it);
      num_armed.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  switch (fired.act) {
    case action::throw_error:
      throw failpoint_error(std::string("failpoint '") + site + "' fired" +
                            (fired.message.empty() ? "" : ": " + fired.message));
    case action::fail:
      return true;
    case action::sleep_ms:
      std::this_thread::sleep_for(std::chrono::milliseconds(fired.sleep_millis));
      return false;
    case action::crash:
      // Simulated power loss: no destructors, no stream flushes, no atexit.
      // Whatever the OS has not persisted is gone — exactly the state the
      // recovery path must cope with.
      std::_Exit(kCrashExitCode);
    case action::off:
      break;
  }
  return false;
}

}  // namespace detail

}  // namespace ligra::util::failpoint
