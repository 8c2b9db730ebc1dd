// Record pins for every engine suite: the FNV-1a hash of the sorted
// canonical JSONL (JobRecord::canonical_json, no timing fields) of each
// suite at base seed 1234 and one repetition. A change to a suite's job
// list, job numbering, seeds or metrics shows up as a hash diff, even
// for suites whose CSVs are not committed under results/.
//
// Regenerate (only when *intentionally* changing a suite's output) with:
//   MOLDSCHED_PRINT_GOLDENS=1 ./moldsched_engine_tests
//     --gtest_filter='*SuiteRecordPinTest*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <ostream>
#include <string>

#include "moldsched/engine/engine.hpp"

namespace moldsched::engine {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct SuitePin {
  const char* suite;
  std::size_t jobs;
  const char* records_fnv;
};

// ctest names each case after this (".../RecordsMatchThePin/table1").
void PrintTo(const SuitePin& pin, std::ostream* os) { *os << pin.suite; }

class SuiteRecordPinTest : public testing::TestWithParam<SuitePin> {};

TEST_P(SuiteRecordPinTest, RecordsMatchThePin) {
  const SuitePin& pin = GetParam();
  SuiteOptions options;
  options.threads = 2;
  options.repeats = 1;
  options.base_seed = 1234;
  options.jsonl_path = testing::TempDir() + "/moldsched_suite_pin_" +
                       std::string(pin.suite) + ".jsonl";
  options.write_outputs = false;
  const auto report = run_suite(pin.suite, options);
  std::filesystem::remove(options.jsonl_path);

  const std::string hash =
      hex64(fnv1a(sorted_canonical_jsonl(report.records)));
  if (std::getenv("MOLDSCHED_PRINT_GOLDENS") != nullptr) {
    std::cout << "    {\"" << pin.suite << "\", " << report.records.size()
              << ", \"" << hash << "\"},\n";
  }
  EXPECT_EQ(report.ok, report.records.size());
  EXPECT_EQ(report.records.size(), pin.jobs);
  EXPECT_EQ(hash, pin.records_fnv);
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, SuiteRecordPinTest,
    testing::Values(SuitePin{"table1", 32, "0x24c66db2014b8f57"},
                    SuitePin{"ratio-curves", 4, "0x6956ad55f3f157b0"},
                    SuitePin{"random-dags", 468, "0x54164628c093d174"},
                    SuitePin{"workflows", 80, "0x496640a4a0a0ac59"},
                    SuitePin{"resilience", 20, "0xab28591eb46f6b85"},
                    SuitePin{"selfcheck", 50, "0x2f190940de7b5a38"},
                    SuitePin{"release", 48, "0x76c800665b98f38e"},
                    SuitePin{"improved", 128, "0xd3f1b5b41c93cbc4"},
                    SuitePin{"pisa", 56, "0x0a50d350fead0930"},
                    SuitePin{"ingest", 104, "0xe6a31f1e4419945c"},
                    SuitePin{"exact", 168, "0x8e84753f3fd263dc"}));

}  // namespace
}  // namespace moldsched::engine
