#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace verihvac {
namespace {

class ConfigTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) { setenv(name, value, 1); }
  void UnsetEnv(const char* name) { unsetenv(name); }
  void TearDown() override {
    for (const char* n : {"VH_TEST_STR", "VH_TEST_NUM", "VH_TEST_FLAG", "VERI_HVAC_FULL"}) {
      unsetenv(n);
    }
  }
};

TEST_F(ConfigTest, EnvOrFallsBackWhenUnset) {
  UnsetEnv("VH_TEST_STR");
  EXPECT_EQ(env_or("VH_TEST_STR", "fallback"), "fallback");
}

TEST_F(ConfigTest, EnvOrReadsValue) {
  SetEnv("VH_TEST_STR", "hello");
  EXPECT_EQ(env_or("VH_TEST_STR", "fallback"), "hello");
}

TEST_F(ConfigTest, EmptyValueFallsBack) {
  SetEnv("VH_TEST_STR", "");
  EXPECT_EQ(env_or("VH_TEST_STR", "fb"), "fb");
}

TEST_F(ConfigTest, LongParsesAndFallsBack) {
  SetEnv("VH_TEST_NUM", "123");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 7), 123);
  // A malformed knob fails loudly instead of silently running a default.
  for (const char* malformed : {"not a number", "40abc", " 40", "4.5"}) {
    SetEnv("VH_TEST_NUM", malformed);
    EXPECT_THROW(env_or_long("VH_TEST_NUM", 7), std::invalid_argument) << malformed;
  }
  UnsetEnv("VH_TEST_NUM");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 9), 9);
}

TEST_F(ConfigTest, DoubleParses) {
  SetEnv("VH_TEST_NUM", "2.5");
  EXPECT_DOUBLE_EQ(env_or_double("VH_TEST_NUM", 0.0), 2.5);
  SetEnv("VH_TEST_NUM", "2.5x");
  try {
    env_or_double("VH_TEST_NUM", 0.0);
    ADD_FAILURE() << "2.5x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("VH_TEST_NUM"), std::string::npos) << e.what();
  }
}

TEST_F(ConfigTest, FlagRecognizesTruthyStrings) {
  for (const char* truthy : {"1", "true", "TRUE", "on", "yes"}) {
    SetEnv("VH_TEST_FLAG", truthy);
    EXPECT_TRUE(env_flag("VH_TEST_FLAG")) << truthy;
  }
  for (const char* falsy : {"0", "false", "off", "no", "banana"}) {
    SetEnv("VH_TEST_FLAG", falsy);
    EXPECT_FALSE(env_flag("VH_TEST_FLAG")) << falsy;
  }
}

TEST_F(ConfigTest, FullScaleFollowsEnv) {
  UnsetEnv("VERI_HVAC_FULL");
  EXPECT_FALSE(full_scale());
  SetEnv("VERI_HVAC_FULL", "1");
  EXPECT_TRUE(full_scale());
}

}  // namespace
}  // namespace verihvac
