#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/config.h"

namespace hybridflow {
namespace {

TEST(TrimWhitespaceTest, Basics) {
  EXPECT_EQ(TrimWhitespace("  x  "), "x");
  EXPECT_EQ(TrimWhitespace("x"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("\ta b\n"), "a b");
}

TEST(ConfigMapTest, ParsesKeysValuesAndComments) {
  ConfigMap config;
  ASSERT_TRUE(config.ParseString(R"(
# cluster setup
cluster.gpus = 64
model.actor = 13B   # inline comment
run.real_compute = true
perf.mfu = 0.45
)"));
  EXPECT_EQ(config.GetInt("cluster.gpus", 0), 64);
  EXPECT_EQ(config.GetString("model.actor"), "13B");
  EXPECT_TRUE(config.GetBool("run.real_compute", false));
  EXPECT_DOUBLE_EQ(config.GetDouble("perf.mfu", 0.0), 0.45);
}

TEST(ConfigMapTest, FallbacksForMissingKeys) {
  ConfigMap config;
  EXPECT_EQ(config.GetInt("absent", 7), 7);
  EXPECT_EQ(config.GetString("absent", "x"), "x");
  EXPECT_FALSE(config.GetBool("absent", false));
  EXPECT_DOUBLE_EQ(config.GetDouble("absent", 1.5), 1.5);
}

TEST(ConfigMapTest, LaterKeysOverride) {
  ConfigMap config;
  ASSERT_TRUE(config.ParseString("a = 1\na = 2\n"));
  EXPECT_EQ(config.GetInt("a", 0), 2);
}

TEST(ConfigMapTest, MalformedLineReportsError) {
  ConfigMap config;
  std::string error;
  EXPECT_FALSE(config.ParseString("cluster.gpus 64\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(config.ParseString("= value\n", &error));
}

TEST(ConfigMapTest, BadTypedValueAborts) {
  ConfigMap config;
  ASSERT_TRUE(config.ParseString("n = notanumber\nb = maybe\n"));
  EXPECT_DEATH(config.GetInt("n", 0), "not an integer");
  EXPECT_DEATH(config.GetBool("b", false), "not a boolean");
}

TEST(ConfigMapTest, BoolSpellings) {
  ConfigMap config;
  ASSERT_TRUE(config.ParseString("a=true\nb=0\nc=yes\nd=off\n"));
  EXPECT_TRUE(config.GetBool("a", false));
  EXPECT_FALSE(config.GetBool("b", true));
  EXPECT_TRUE(config.GetBool("c", false));
  EXPECT_FALSE(config.GetBool("d", true));
}

TEST(ConfigMapTest, UnreadKeysListsSetKeysNoGetterAsked) {
  ConfigMap config;
  ASSERT_TRUE(config.ParseString("a = 1\nb = x\nc = true\nd = 0.5\nzz.typo = 3\n"));
  EXPECT_EQ(config.UnreadKeys(),
            (std::vector<std::string>{"a", "b", "c", "d", "zz.typo"}));
  EXPECT_EQ(config.GetInt("a", 0), 1);
  EXPECT_EQ(config.GetString("b"), "x");
  EXPECT_TRUE(config.GetBool("c", false));
  EXPECT_DOUBLE_EQ(config.GetDouble("d", 0.0), 0.5);
  EXPECT_EQ(config.GetInt("absent", 7), 7);  // Reading an unset key adds nothing.
  EXPECT_TRUE(config.Has("zz.typo"));        // Has() is not a read.
  EXPECT_EQ(config.UnreadKeys(), std::vector<std::string>{"zz.typo"});
}

TEST(ConfigMapTest, ParseFileRoundTrip) {
  const std::string path = "/tmp/hf_config_test.cfg";
  {
    std::ofstream out(path);
    out << "cluster.gpus = 16\n";
  }
  ConfigMap config;
  ASSERT_TRUE(config.ParseFile(path));
  EXPECT_EQ(config.GetInt("cluster.gpus", 0), 16);
  std::remove(path.c_str());

  std::string error;
  EXPECT_FALSE(config.ParseFile("/nonexistent/path.cfg", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace hybridflow
