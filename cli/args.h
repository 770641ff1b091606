// Command-line parsing for the swsim CLI: each command is one table entry
// that declares its arguments and flags, and a command line
//
//   swsim <command> [<sub>] [positional...] [--flag] [--key value]...
//
// is parsed against its entry. "--key=value" is a synonym for "--key
// value"; a boolean flag never takes a value, a value flag always does (and
// it never starts with "--"). An undeclared flag, a missing value, a value
// on a boolean flag, a repeated flag, a missing or extra argument and an
// option before the command are usage errors (std::invalid_argument).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace swsim::cli {

// One accepted flag. `value` names its argument in help ("nm"); empty means
// a boolean flag. `note` is the help line of a shared flag.
struct Flag {
  std::string_view name;
  std::string_view value = {};
  std::string_view note = {};
};

// Flags several commands share; help lists them once, as "<name> flags".
struct FlagGroup {
  std::string_view name;
  std::vector<Flag> flags;
};

class Args;
using Handler = int(const Args&);

struct Command {
  std::string_view name;  // "truthtable", or "group sub" ("probe record")
  // Positional arguments: "<x>" required, "[x]" optional, "..." repeats.
  std::string_view usage;
  std::vector<Flag> flags;               // the command's own flags
  std::vector<const FlagGroup*> groups;  // shared flags it also accepts
  std::string_view summary;              // one help line
  Handler* run = nullptr;
};

class Args {
 public:
  // Parses `words` (what follows the command name) against `command`'s
  // usage and flags; `shared` false leaves its flag groups out.
  static Args parse(const Command& command, std::span<const std::string> words,
                    bool shared = true);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;
  // Returns the value of --key, or nullopt when absent or a boolean flag.
  std::optional<std::string> value(const std::string& key) const;
  // Numeric access with a default; throws std::invalid_argument when the
  // value is present but not a number ("--jobs=abc" is a usage error, not
  // a silent fallback).
  double number(const std::string& key, double fallback) const;
  long integer(const std::string& key, long fallback) const;
  // Like integer() but rejects negative values with a clear message — for
  // counts ("--jobs -4" cannot mean anything).
  std::size_t unsigned_integer(const std::string& key,
                               std::size_t fallback) const;
  // Like unsigned_integer() but also rejects more than
  // engine::ThreadPool::kMaxThreads — for flags that start that many
  // threads (--jobs, --cell-jobs, --dispatchers).
  std::size_t thread_count(const std::string& key,
                           std::size_t fallback) const;

 private:
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // "" marks a boolean flag
};

struct Invocation {
  const Command* command = nullptr;
  Args args;
};

// Finds the entry named by the leading word(s) of argv[1..] and parses the
// rest against it. An empty command line or a leading "--help" names the
// "help" entry.
Invocation parse_command_line(std::span<const Command> table, int argc,
                              const char* const* argv);

}  // namespace swsim::cli
