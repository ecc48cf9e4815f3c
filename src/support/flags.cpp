#include "support/flags.hpp"

#include <cstdio>
#include <sstream>

#include "support/check.hpp"
#include "support/str.hpp"

namespace wolf {

void Flags::define_int(const std::string& name, std::int64_t default_value,
                       const std::string& help) {
  Flag f;
  f.kind = Kind::kInt;
  f.help = help;
  f.int_value = default_value;
  flags_[name] = std::move(f);
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  Flag f;
  f.kind = Kind::kBool;
  f.help = help;
  f.bool_value = default_value;
  flags_[name] = std::move(f);
}

void Flags::define_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  Flag f;
  f.kind = Kind::kString;
  f.help = help;
  f.string_value = default_value;
  flags_[name] = std::move(f);
}

bool Flags::set_from_string(Flag& flag, const std::string& value) {
  switch (flag.kind) {
    case Kind::kInt: {
      long long v = 0;
      if (!parse_int(value, v)) return false;
      flag.int_value = v;
      return true;
    }
    case Kind::kBool:
      if (value == "true" || value == "1") {
        flag.bool_value = true;
        return true;
      }
      if (value == "false" || value == "0") {
        flag.bool_value = false;
        return true;
      }
      return false;
    case Kind::kString:
      flag.string_value = value;
      return true;
  }
  return false;
}

bool Flags::parse(int argc, char** argv) {
  const std::string who = context_.empty() ? std::string(argv[0]) : context_;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "%s", usage(who).c_str());
      return false;
    }
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "%s: unexpected positional argument: %s\n%s",
                   who.c_str(), arg.c_str(), usage(who).c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "%s: unknown flag: --%s\n%s", who.c_str(),
                   name.c_str(), usage(who).c_str());
      return false;
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        flag.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag --%s expects a value\n", who.c_str(),
                     name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!set_from_string(flag, value)) {
      std::fprintf(stderr, "%s: bad value for --%s: %s\n", who.c_str(),
                   name.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

std::int64_t Flags::get_int(const std::string& name) const {
  auto it = flags_.find(name);
  WOLF_CHECK_MSG(it != flags_.end() && it->second.kind == Kind::kInt,
                 "no int flag " << name);
  return it->second.int_value;
}

bool Flags::get_bool(const std::string& name) const {
  auto it = flags_.find(name);
  WOLF_CHECK_MSG(it != flags_.end() && it->second.kind == Kind::kBool,
                 "no bool flag " << name);
  return it->second.bool_value;
}

const std::string& Flags::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  WOLF_CHECK_MSG(it != flags_.end() && it->second.kind == Kind::kString,
                 "no string flag " << name);
  return it->second.string_value;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kInt:
        os << "=<int> (default " << flag.int_value << ")";
        break;
      case Kind::kBool:
        os << " (default " << (flag.bool_value ? "true" : "false") << ")";
        break;
      case Kind::kString:
        os << "=<string> (default \"" << flag.string_value << "\")";
        break;
    }
    os << "\n      " << flag.help << '\n';
  }
  return os.str();
}

void register_common_flags(Flags& flags) {
  flags.define_int("seed", 2014, "seed");
  flags.define_int("jobs", 0,
                   "classification parallelism (0 = hardware concurrency; "
                   "1 reproduces the serial pipeline exactly)");
  flags.define_int("deadline-ms", 0,
                   "wall-clock budget per trial (0 = unlimited; rt watchdog)");
  flags.define_string("metrics-out", "",
                      "write a JSON metrics report (spans + counters + "
                      "funnel) to this path ('-' for stdout)");
  flags.define_bool("metrics-stable", false,
                    "emit the byte-stable metrics variant (no timings or "
                    "ids; identical at every --jobs level)");
  flags.define_bool("progress", false,
                    "print throttled progress heartbeats to stderr");
}

}  // namespace wolf
