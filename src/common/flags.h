#ifndef MPCQP_COMMON_FLAGS_H_
#define MPCQP_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace mpcqp {

// Small table-driven command-line flag parser for the tools and benches:
// register each flag once with its destination, range, and help line, then
// Parse() handles both the "--flag value" and "--flag=value" spellings,
// checked numeric parsing (common/parse.h), repeated NAME=VALUE flags, and
// unknown-flag errors. Help() renders the registered table, so the usage
// text can never drift from the flags that actually parse.
class FlagSet {
 public:
  // Value-taking flags. `alias` is an optional short spelling ("-p").
  void String(const std::string& name, std::string* out,
              const std::string& help, const std::string& alias = "");
  void Int(const std::string& name, int* out, int min_value, int max_value,
           const std::string& help, const std::string& alias = "");
  void Int64(const std::string& name, int64_t* out, int64_t min_value,
             int64_t max_value, const std::string& help);
  void Uint64(const std::string& name, uint64_t* out, const std::string& help);
  // Requires value >= min_value.
  void Double(const std::string& name, double* out, double min_value,
              const std::string& help);
  // "--flag on|off" (or true/false/1/0, via ParseBool).
  void Bool(const std::string& name, bool* out, const std::string& help);
  // Valueless switch: "--flag" sets *out = true.
  void Switch(const std::string& name, bool* out, const std::string& help);
  // Repeated "--flag NAME=VALUE"; each occurrence inserts into `out`
  // (later occurrences of the same NAME overwrite).
  void KeyValue(const std::string& name,
                std::map<std::string, std::string>* out,
                const std::string& help);

  // Parses argv[1..argc). On the first problem returns an
  // InvalidArgumentError naming the flag; `out` state already assigned by
  // earlier flags is left in place (callers exit on error anyway). A
  // non-null `given` receives the name of every flag on the command line.
  Status Parse(int argc, char** argv,
               std::set<std::string>* given = nullptr) const;

  // One "  --name VALUE  help" line per registered flag, in registration
  // order (the generated body of a usage message).
  std::string Help() const;

 private:
  struct Flag {
    std::string name;   // Without the leading dashes.
    std::string alias;  // Optional alternate spelling, with dashes ("-p").
    bool takes_value = true;
    std::string value_hint;  // "N", "FILE", ... for the help line.
    std::string help;
    std::function<Status(const std::string&)> apply;
  };

  void Add(Flag flag);
  const Flag* Find(const std::string& name) const;

  std::vector<Flag> flags_;
};

// Splits "NAME=VALUE" at the first '='; returns false if there is none.
bool SplitKeyValue(const std::string& arg, std::string* key,
                   std::string* value);

}  // namespace mpcqp

#endif  // MPCQP_COMMON_FLAGS_H_
