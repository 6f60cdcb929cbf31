// Tiny command-line parser for the example binaries and the graph_tool CLI.
// Accepts `-flag value`, `-flag=value`, and bare boolean `-flag` forms, plus
// positional arguments — the same surface the original Ligra binaries expose
// (e.g. `./BFS -r 0 -rounds 3 graph.adj`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ligra {

class command_line {
 public:
  command_line(int argc, char* const argv[]);

  // True if `-name` was passed (with or without a value).
  bool has(const std::string& name) const;

  // Value lookups with defaults. A flag present without a value returns the
  // default for the typed getters and "" for get_string.
  std::string get_string(const std::string& name, std::string def = "") const;
  int64_t get_int(const std::string& name, int64_t def = 0) const;
  double get_double(const std::string& name, double def = 0.0) const;

  // Positional arguments in order of appearance (argv[0] excluded).
  const std::vector<std::string>& positional() const { return positional_; }

  // Returns positional(i) or `def` if absent.
  std::string positional_or(size_t i, std::string def = "") const;

  const std::string& program() const { return program_; }

  // The flags passed whose names are not in `known`, in order of
  // appearance (names without the leading dashes or any `=value`). The
  // constructor accepts any flag, so a binary that wants to reject a
  // misspelt or retired option checks this list itself.
  std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::vector<std::pair<std::string, std::string>> flags_;  // name -> value ("" if none)
  std::vector<std::string> positional_;
};

}  // namespace ligra
