#include "cli/args.h"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <stdexcept>

#include "engine/thread_pool.h"

namespace swsim::cli {

Args Args::parse(const Command& command, std::span<const std::string> words,
                 bool shared) {
  std::vector<Flag> flags = command.flags;
  for (const FlagGroup* g : command.groups) {
    if (shared) flags.insert(flags.end(), g->flags.begin(), g->flags.end());
  }
  Args args;
  args.command_ = command.name;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& tok = words[i];
    if (!tok.starts_with("--")) {
      args.positional_.push_back(tok);
      continue;
    }
    std::string key = tok.substr(2);
    std::optional<std::string> inline_value;
    // "--key=value" form: split on the first '='.
    if (const auto eq = key.find('='); eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
      if (inline_value->empty()) {
        throw std::invalid_argument("Args: option --" + key +
                                    "= has an empty value");
      }
    }
    const auto flag = std::ranges::find(flags, key, &Flag::name);
    const std::string where = args.command_ + ": flag --" + key;
    if (flag == flags.end()) {
      throw std::invalid_argument(args.command_ + ": unknown flag --" + key);
    }
    if (args.options_.count(key) > 0) {
      throw std::invalid_argument("Args: option --" + key +
                                  " given more than once");
    }
    if (flag->value.empty()) {
      if (inline_value) throw std::invalid_argument(where + " takes no value");
      args.options_[key] = "";
    } else if (inline_value) {
      args.options_[key] = *inline_value;
    } else if (i + 1 < words.size() && !words[i + 1].starts_with("--")) {
      args.options_[key] = words[++i];
    } else {
      throw std::invalid_argument(where + " needs a value");
    }
  }
  // Positional arity, from the usage synopsis.
  std::size_t required = 0;
  std::size_t at_most = 0;
  for (const auto w : std::views::split(command.usage, ' ')) {
    const std::string_view word(w.begin(), w.end());
    if (word.ends_with("...>") || word.ends_with("...]")) at_most = SIZE_MAX;
    required += word.starts_with('<') ? 1 : 0;
    at_most += at_most == SIZE_MAX ? 0 : 1;
    if (args.positional_.size() < required) {
      throw std::invalid_argument(args.command_ + ": missing " +
                                  std::string(word));
    }
  }
  if (args.positional_.size() > at_most) {
    throw std::invalid_argument(args.command_ + ": unexpected argument '" +
                                args.positional_[at_most] + "'");
  }
  return args;
}

bool Args::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::optional<std::string> Args::value(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

double Args::number(const std::string& key, double fallback) const {
  const auto v = value(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: option --" + key +
                                " expects a number, got '" + *v + "'");
  }
}

long Args::integer(const std::string& key, long fallback) const {
  const auto v = value(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const long parsed = std::stol(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: option --" + key +
                                " expects an integer, got '" + *v + "'");
  }
}

std::size_t Args::unsigned_integer(const std::string& key,
                                   std::size_t fallback) const {
  const long parsed = integer(key, 0);
  if (!value(key)) return fallback;
  if (parsed < 0) {
    throw std::invalid_argument("Args: option --" + key +
                                " expects a non-negative integer, got '" +
                                *value(key) + "'");
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t Args::thread_count(const std::string& key,
                               std::size_t fallback) const {
  const std::size_t n = unsigned_integer(key, fallback);
  if (value(key) && n > engine::ThreadPool::kMaxThreads) {
    throw std::invalid_argument(
        "Args: option --" + key + " expects at most " +
        std::to_string(engine::ThreadPool::kMaxThreads) + " threads, got '" +
        *value(key) + "'");
  }
  return n;
}

Invocation parse_command_line(std::span<const Command> table, int argc,
                              const char* const* argv) {
  const std::vector<std::string> words(argv + 1, argv + argc);
  const std::string first =
      words.empty() || words[0] == "--help" ? "help" : words[0];
  if (first.starts_with("--")) {
    throw std::invalid_argument("options go after the command, got '" +
                                first + "' first");
  }
  // A group word ("probe") names no entry itself; the next word picks one
  // of its "probe <sub>" entries.
  std::string subs;
  for (const Command& c : table) {
    std::size_t used = 1;
    if (c.name == first) {
      // An empty line or "--help" names help, with no arguments.
      if (words.empty() || first != words[0]) used = words.size();
    } else if (c.name.starts_with(first + " ")) {
      const std::string_view sub = c.name.substr(first.size() + 1);
      subs.append(subs.empty() ? "" : "|").append(sub);
      if (words.size() < 2 || words[1] != sub) continue;
      used = 2;
    } else {
      continue;
    }
    return {&c, Args::parse(c, std::span(words).subspan(used))};
  }
  std::string given = first;
  if (!subs.empty() && words.size() > 1) given += " " + words[1];
  throw std::invalid_argument(
      "unknown command '" + given + "'" +
      (subs.empty() ? "" : " (want " + first + " " + subs + ")"));
}

}  // namespace swsim::cli
