#include "common/flags.h"

#include <utility>

#include "common/check.h"
#include "common/parse.h"

namespace mpcqp {

bool SplitKeyValue(const std::string& arg, std::string* key,
                   std::string* value) {
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) return false;
  *key = arg.substr(0, eq);
  *value = arg.substr(eq + 1);
  return true;
}

void FlagSet::Add(Flag flag) {
  MPCQP_CHECK(Find("--" + flag.name) == nullptr)
      << "duplicate flag --" << flag.name;
  flags_.push_back(std::move(flag));
}

const FlagSet::Flag* FlagSet::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (name == "--" + flag.name || (!flag.alias.empty() && name == flag.alias))
      return &flag;
  }
  return nullptr;
}

namespace {

Status FlagError(const std::string& name, const std::string& message) {
  return InvalidArgumentError("--" + name + ": " + message);
}

}  // namespace

void FlagSet::String(const std::string& name, std::string* out,
                     const std::string& help, const std::string& alias) {
  Flag flag;
  flag.name = name;
  flag.alias = alias;
  flag.value_hint = "S";
  flag.help = help;
  flag.apply = [out](const std::string& text) {
    *out = text;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Int(const std::string& name, int* out, int min_value,
                  int max_value, const std::string& help,
                  const std::string& alias) {
  Flag flag;
  flag.name = name;
  flag.alias = alias;
  flag.value_hint = "N";
  flag.help = help;
  flag.apply = [name, out, min_value, max_value](const std::string& text) {
    const auto parsed = ParseIntInRange(text, min_value, max_value);
    if (!parsed.ok()) return FlagError(name, parsed.status().message());
    *out = *parsed;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Int64(const std::string& name, int64_t* out, int64_t min_value,
                    int64_t max_value, const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.apply = [name, out, min_value, max_value](const std::string& text) {
    const auto parsed = ParseInt64InRange(text, min_value, max_value);
    if (!parsed.ok()) return FlagError(name, parsed.status().message());
    *out = *parsed;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Uint64(const std::string& name, uint64_t* out,
                     const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.apply = [name, out](const std::string& text) {
    const auto parsed = ParseUint64(text);
    if (!parsed.ok()) return FlagError(name, parsed.status().message());
    *out = *parsed;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Double(const std::string& name, double* out, double min_value,
                     const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "X";
  flag.help = help;
  flag.apply = [name, out, min_value](const std::string& text) {
    const auto parsed = ParseDouble(text);
    if (!parsed.ok()) return FlagError(name, parsed.status().message());
    if (*parsed < min_value) {
      return FlagError(name, "must be >= " + std::to_string(min_value));
    }
    *out = *parsed;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Bool(const std::string& name, bool* out,
                   const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "on|off";
  flag.help = help;
  flag.apply = [name, out](const std::string& text) {
    const auto parsed = ParseBool(text);
    if (!parsed.ok()) return FlagError(name, parsed.status().message());
    *out = *parsed;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::Switch(const std::string& name, bool* out,
                     const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.takes_value = false;
  flag.help = help;
  flag.apply = [out](const std::string&) {
    *out = true;
    return OkStatus();
  };
  Add(std::move(flag));
}

void FlagSet::KeyValue(const std::string& name,
                       std::map<std::string, std::string>* out,
                       const std::string& help) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "NAME=VALUE";
  flag.help = help;
  flag.apply = [name, out](const std::string& text) {
    std::string key;
    std::string value;
    if (!SplitKeyValue(text, &key, &value) || key.empty()) {
      return FlagError(name, "expected NAME=VALUE, got '" + text + "'");
    }
    (*out)[key] = value;
    return OkStatus();
  };
  Add(std::move(flag));
}

Status FlagSet::Parse(int argc, char** argv,
                      std::set<std::string>* given) const {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept the --flag=value spelling by splitting at the first '='.
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg = arg.substr(0, eq);
      }
    }
    const Flag* flag = Find(arg);
    if (flag == nullptr) return InvalidArgumentError("unknown flag " + arg);
    if (given != nullptr) given->insert(flag->name);
    if (!flag->takes_value) {
      if (has_inline_value) {
        return FlagError(flag->name, "does not take a value");
      }
      const Status applied = flag->apply("");
      if (!applied.ok()) return applied;
      continue;
    }
    std::string value;
    if (has_inline_value) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) return FlagError(flag->name, "missing value");
      value = argv[++i];
    }
    const Status applied = flag->apply(value);
    if (!applied.ok()) return applied;
  }
  return OkStatus();
}

std::string FlagSet::Help() const {
  std::string out;
  for (const Flag& flag : flags_) {
    std::string line = "  --" + flag.name;
    if (flag.takes_value) line += " " + flag.value_hint;
    if (!flag.alias.empty()) line += " (" + flag.alias + ")";
    while (line.size() < 28) line += ' ';
    out += line + " " + flag.help + "\n";
  }
  return out;
}

}  // namespace mpcqp
