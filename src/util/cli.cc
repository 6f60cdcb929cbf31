#include "util/cli.h"

#include <algorithm>
#include <cstdlib>

namespace ligra {

command_line::command_line(int argc, char* const argv[]) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.size() >= 2 && arg[0] == '-' &&
        !(arg.size() > 1 && (std::isdigit(static_cast<unsigned char>(arg[1])) || arg[1] == '.'))) {
      std::string name = arg.substr(1);
      if (!name.empty() && name[0] == '-') name = name.substr(1);  // allow --flag
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        flags_.emplace_back(name.substr(0, eq), name.substr(eq + 1));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        flags_.emplace_back(name, argv[i + 1]);
        i++;
      } else if (i + 1 < argc && argv[i + 1][0] == '-' && argv[i + 1][1] != '\0' &&
                 (std::isdigit(static_cast<unsigned char>(argv[i + 1][1])) || argv[i + 1][1] == '.')) {
        // Negative number value, e.g. "-delta -1.5".
        flags_.emplace_back(name, argv[i + 1]);
        i++;
      } else {
        flags_.emplace_back(name, "");
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool command_line::has(const std::string& name) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return true;
  return false;
}

std::string command_line::get_string(const std::string& name, std::string def) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return v;
  return def;
}

int64_t command_line::get_int(const std::string& name, int64_t def) const {
  for (const auto& [k, v] : flags_)
    if (k == name && !v.empty()) return std::strtoll(v.c_str(), nullptr, 10);
  return def;
}

double command_line::get_double(const std::string& name, double def) const {
  for (const auto& [k, v] : flags_)
    if (k == name && !v.empty()) return std::strtod(v.c_str(), nullptr);
  return def;
}

std::vector<std::string> command_line::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [k, v] : flags_)
    if (std::find(known.begin(), known.end(), k) == known.end())
      unknown.push_back(k);
  return unknown;
}

std::string command_line::positional_or(size_t i, std::string def) const {
  return i < positional_.size() ? positional_[i] : def;
}

}  // namespace ligra
