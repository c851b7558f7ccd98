// The table-driven flag parser behind mpcqp_run: both flag spellings,
// checked numeric ranges, repeated key=value flags, aliases, switches,
// unknown-flag errors, and the generated help text.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"

namespace mpcqp {
namespace {

// argv adapter: gtest-side vector of strings -> char** with argv[0].
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("test"));
    for (std::string& arg : args_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesBothSpellingsAndTypes) {
  std::string name;
  int count = 0;
  int64_t big = 0;
  uint64_t seed = 0;
  double ratio = 0.0;
  bool toggled = true;
  bool flipped = false;

  FlagSet flags;
  flags.String("name", &name, "a string");
  flags.Int("count", &count, 1, 100, "an int");
  flags.Int64("big", &big, 1, INT64_MAX, "an int64");
  flags.Uint64("seed", &seed, "a uint64");
  flags.Double("ratio", &ratio, 0.0, "a double");
  flags.Bool("toggled", &toggled, "a bool");
  flags.Switch("flipped", &flipped, "a switch");

  Argv argv({"--name", "alpha", "--count=7", "--big", "5000000000",
             "--seed=18446744073709551615", "--ratio", "2.5",
             "--toggled=off", "--flipped"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(count, 7);
  EXPECT_EQ(big, 5000000000LL);
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_DOUBLE_EQ(ratio, 2.5);
  EXPECT_FALSE(toggled);
  EXPECT_TRUE(flipped);
}

TEST(FlagsTest, AliasAndRepeatedKeyValue) {
  int servers = 0;
  std::map<std::string, std::string> gens;
  FlagSet flags;
  flags.Int("servers", &servers, 1, 1 << 20, "cluster size", "-p");
  flags.KeyValue("gen", &gens, "generator specs");

  Argv argv({"-p", "64", "--gen", "R=uniform:10:5", "--gen=S=zipf:9:3:1.1",
             "--gen", "R=uniform:20:7"});
  std::set<std::string> given;
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), &given).ok());
  // Each given flag once, by its long name, whatever the spelling.
  EXPECT_EQ(given, (std::set<std::string>{"servers", "gen"}));
  EXPECT_EQ(servers, 64);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens["R"], "uniform:20:7");  // Later occurrence wins.
  EXPECT_EQ(gens["S"], "zipf:9:3:1.1");
}

TEST(FlagsTest, RejectsBadInput) {
  int count = 0;
  FlagSet flags;
  flags.Int("count", &count, 1, 10, "an int");

  {
    Argv argv({"--count", "11"});  // Out of range.
    const Status status = flags.Parse(argv.argc(), argv.argv());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("count"), std::string::npos);
  }
  {
    Argv argv({"--count", "seven"});  // Not a number.
    EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()).ok());
  }
  {
    Argv argv({"--count"});  // Missing value.
    EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()).ok());
  }
  {
    Argv argv({"--unknown", "x"});  // Unregistered flag.
    const Status status = flags.Parse(argv.argc(), argv.argv());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("unknown"), std::string::npos);
  }
  {
    Argv argv({"positional"});  // Not a flag at all.
    EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()).ok());
  }
}

TEST(FlagsTest, SwitchRejectsInlineValue) {
  bool flag = false;
  FlagSet flags;
  flags.Switch("verify", &flag, "a switch");
  Argv argv({"--verify=yes"});
  EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()).ok());
}

TEST(FlagsTest, HelpListsEveryFlag) {
  std::string name;
  int count = 0;
  bool quick = false;
  FlagSet flags;
  flags.String("name", &name, "the name to use");
  flags.Int("count", &count, 1, 10, "how many", "-c");
  flags.Switch("quick", &quick, "skip the slow path");

  const std::string help = flags.Help();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("-c"), std::string::npos);
  EXPECT_NE(help.find("--quick"), std::string::npos);
  EXPECT_NE(help.find("the name to use"), std::string::npos);
  EXPECT_NE(help.find("skip the slow path"), std::string::npos);
}

TEST(FlagsTest, SplitKeyValueHelper) {
  std::string key, value;
  EXPECT_TRUE(SplitKeyValue("R=uniform:1:2", &key, &value));
  EXPECT_EQ(key, "R");
  EXPECT_EQ(value, "uniform:1:2");
  // Splits at the FIRST '='; the rest stays in the value.
  EXPECT_TRUE(SplitKeyValue("a=b=c", &key, &value));
  EXPECT_EQ(key, "a");
  EXPECT_EQ(value, "b=c");
  EXPECT_FALSE(SplitKeyValue("noequals", &key, &value));
}

}  // namespace
}  // namespace mpcqp
