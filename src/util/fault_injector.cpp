#include "util/fault_injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/env.hpp"

namespace hts::util {

namespace {

/// SplitMix64-style avalanche (same constants as the plan fingerprint): the
/// per-hit probability draw must decorrelate across (seed, site, index).
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  h += 0x9e3779b97f4a7c15ULL + value;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

[[nodiscard]] std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) h = mix(h, static_cast<std::uint64_t>(c));
  return h;
}

[[noreturn]] void bad_spec(const std::string& fragment, const char* why) {
  throw std::invalid_argument("HTS_FAULT_SPEC: " + std::string(why) + " in \"" +
                              fragment + "\"");
}

[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      break;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& s,
                                      const std::string& fragment) {
  if (s.empty()) bad_spec(fragment, "empty number");
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) bad_spec(fragment, "malformed number");
  return static_cast<std::uint64_t>(value);
}

[[nodiscard]] double parse_prob(const std::string& s,
                                const std::string& fragment) {
  if (s.empty()) bad_spec(fragment, "empty probability");
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || value < 0.0 || value > 1.0) {
    bad_spec(fragment, "probability must be in [0,1]");
  }
  return value;
}

}  // namespace

FaultInjector FaultInjector::from_spec(const std::string& spec) {
  FaultInjector injector;
  if (spec.empty() || spec == "none") return injector;

  std::vector<std::string> rules = split(spec, ';');
  std::size_t first = 0;
  if (!rules.empty() && rules[0].rfind("seed=", 0) == 0) {
    injector.seed_ = parse_u64(rules[0].substr(5), rules[0]);
    first = 1;
  }
  for (std::size_t r = first; r < rules.size(); ++r) {
    const std::string& text = rules[r];
    if (text.empty()) continue;
    const std::vector<std::string> fields = split(text, ':');
    if (fields.size() < 2) bad_spec(text, "rule needs <site>:<trigger>");
    const std::string& site = fields[0];
    if (site.empty()) bad_spec(text, "empty site name");
    if (injector.sites_.count(site) != 0) bad_spec(text, "duplicate site");

    Rule rule;
    const std::string& trigger = fields[1];
    if (trigger.rfind("every=", 0) == 0) {
      rule.trigger = Rule::Trigger::kEvery;
      rule.every = parse_u64(trigger.substr(6), text);
      if (rule.every == 0) bad_spec(text, "every=0");
    } else if (trigger.rfind("at=", 0) == 0) {
      rule.trigger = Rule::Trigger::kAt;
      for (const std::string& index : split(trigger.substr(3), ',')) {
        rule.at.push_back(parse_u64(index, text));
      }
      std::sort(rule.at.begin(), rule.at.end());
    } else if (trigger.rfind("prob=", 0) == 0) {
      rule.trigger = Rule::Trigger::kProb;
      rule.prob = parse_prob(trigger.substr(5), text);
    } else {
      bad_spec(text, "unknown trigger (want every=/at=/prob=)");
    }

    for (std::size_t f = 2; f < fields.size(); ++f) {
      const std::string& option = fields[f];
      if (option.rfind("kind=", 0) == 0) {
        const std::string kind = option.substr(5);
        if (kind == "fail") {
          rule.kind = Kind::kFail;
        } else if (kind == "bad_alloc") {
          rule.kind = Kind::kBadAlloc;
        } else if (kind == "transient") {
          rule.kind = Kind::kTransient;
        } else {
          bad_spec(text, "unknown kind (want fail/bad_alloc/transient)");
        }
      } else if (option.rfind("max=", 0) == 0) {
        if (rule.trigger == Rule::Trigger::kProb) {
          // The Mth probabilistic match depends on every earlier hit, not
          // just the current index — it would break per-hit determinism.
          bad_spec(text, "max= is only valid with every=/at=");
        }
        rule.max = parse_u64(option.substr(4), text);
      } else {
        bad_spec(text, "unknown option (want kind=/max=)");
      }
    }

    auto entry = std::make_unique<Site>();
    entry->rule = rule;
    injector.sites_.emplace(site, std::move(entry));
  }
  injector.armed_ = !injector.sites_.empty();
  return injector;
}

std::string FaultInjector::env_spec() {
  return env_string("HTS_FAULT_SPEC", "");
}

bool FaultInjector::matches(const Rule& rule, const std::string& site,
                            std::uint64_t index) const {
  switch (rule.trigger) {
    case Rule::Trigger::kEvery: {
      if ((index + 1) % rule.every != 0) return false;
      const std::uint64_t ordinal = (index + 1) / rule.every - 1;
      return rule.max == 0 || ordinal < rule.max;
    }
    case Rule::Trigger::kAt: {
      const auto it = std::lower_bound(rule.at.begin(), rule.at.end(), index);
      if (it == rule.at.end() || *it != index) return false;
      const auto ordinal =
          static_cast<std::uint64_t>(it - rule.at.begin());
      return rule.max == 0 || ordinal < rule.max;
    }
    case Rule::Trigger::kProb: {
      std::uint64_t h = mix(seed_, hash_string(site));
      h = mix(h, index);
      // Top 53 bits -> uniform double in [0, 1).
      const double draw =
          static_cast<double>(h >> 11) * 0x1.0p-53;
      return draw < rule.prob;
    }
  }
  return false;
}

void FaultInjector::fault_slow(const char* site) {
  const auto it = sites_.find(site);
  if (it == sites_.end()) return;
  Site& entry = *it->second;
  const std::uint64_t index =
      entry.hits.fetch_add(1, std::memory_order_relaxed);
  if (!matches(entry.rule, it->first, index)) return;
  entry.injected.fetch_add(1, std::memory_order_relaxed);
  const std::string what = "injected fault at " + it->first + " (hit " +
                           std::to_string(index) + ")";
  switch (entry.rule.kind) {
    case Kind::kFail: throw FaultError(it->first, what);
    case Kind::kBadAlloc: throw std::bad_alloc();
    case Kind::kTransient: throw TransientFaultError(it->first, what);
  }
}

std::uint64_t FaultInjector::hits(const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second->hits.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second->injected.load(std::memory_order_relaxed);
}

}  // namespace hts::util
