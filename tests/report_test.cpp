// Tests for campaign reporting: CSV round trip, region-path formatting, the
// human-readable summary and the region labels of the `nvct report` markdown.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/flight_report.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"

namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;

namespace {

cr::CampaignResult smallCampaign() {
  cr::CampaignConfig config;
  config.numTests = 12;
  const cr::CampaignRunner runner(easycrash::apps::findBenchmark("is").factory,
                                  config);
  return runner.run();
}

/// Region labels of one markdown table, in row order: the first backticked
/// cell of each row after `heading`, up to the next blank line.
std::vector<std::string> tableLabels(const std::string& md, const std::string& heading) {
  std::vector<std::string> labels;
  std::size_t pos = md.find(heading);
  if (pos == std::string::npos) return labels;
  pos = md.find("\n|", pos);
  while (pos != std::string::npos && pos + 1 < md.size() && md[pos + 1] == '|') {
    const std::size_t end = md.find('\n', pos + 1);
    const std::string row = md.substr(pos + 1, end - pos - 1);
    if (row.rfind("| `", 0) == 0) {
      labels.push_back(row.substr(3, row.find('`', 3) - 3));
    }
    pos = end;
  }
  return labels;
}

}  // namespace

TEST(RegionPath, Formatting) {
  EXPECT_EQ(cr::formatRegionPath({}), "main");
  EXPECT_EQ(cr::formatRegionPath({0}), "R1");
  EXPECT_EQ(cr::formatRegionPath({1, 4}), "R2>R5");
}

TEST(Report, CsvHasHeaderAndOneRowPerTest) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  const std::string text = os.str();
  int lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 1 + static_cast<int>(campaign.tests.size()));
  EXPECT_NE(text.find("crash_access"), std::string::npos);
  EXPECT_NE(text.find("rate_bucket_hist"), std::string::npos);
}

TEST(Report, CsvRoundTripsRecords) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  std::istringstream is(os.str());
  const auto records = cr::readCampaignCsv(is);
  ASSERT_EQ(records.size(), campaign.tests.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].crashAccessIndex, campaign.tests[i].crashAccessIndex);
    EXPECT_EQ(records[i].response, campaign.tests[i].response);
    EXPECT_EQ(records[i].crashIteration, campaign.tests[i].crashIteration);
    EXPECT_EQ(records[i].extraIterations, campaign.tests[i].extraIterations);
    EXPECT_EQ(records[i].inconsistentRate.size(),
              campaign.tests[i].inconsistentRate.size());
  }
}

TEST(Report, CsvRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW((void)cr::readCampaignCsv(empty), std::runtime_error);
  std::istringstream wrongHeader("nope,nope\n");
  EXPECT_THROW((void)cr::readCampaignCsv(wrongHeader), std::runtime_error);
  std::istringstream shortRow(
      "crash_access,iteration,restart_iteration,region,region_path,response,"
      "extra_iterations\n1,2\n");
  EXPECT_THROW((void)cr::readCampaignCsv(shortRow), std::runtime_error);
}

TEST(Report, SummaryMentionsKeyAggregates) {
  const auto campaign = smallCampaign();
  std::ostringstream os;
  cr::writeCampaignSummary(campaign, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("recomputability"), std::string::npos);
  EXPECT_NE(text.find("per-region c_k"), std::string::npos);
  EXPECT_NE(text.find("bucket_hist"), std::string::npos);
}

TEST(Report, CrashRecordsCarryRegionPaths) {
  const auto campaign = smallCampaign();
  for (const auto& test : campaign.tests) {
    ASSERT_FALSE(test.regionPath.empty())
        << "IS crashes always occur inside a first-level region";
    EXPECT_EQ(test.regionPath.back(), test.region);
  }
}

TEST(Report, FlightReportNamesRegionsLikeTheCsvInIdOrder) {
  // Twelve regions, ids 0..11, plus one nested path: every table of the
  // report renders a region as the CSV does (id + 1), and orders rows by the
  // path's ids, so R2 precedes R10 and R2>R10 sits right after R2.
  cr::JournalReplay journal;
  journal.header.app = "synthetic";
  journal.header.tests = 13;
  for (rt::PointId id = 0; id < 12; ++id) {
    cr::CrashTestRecord record;
    record.region = id;
    record.regionPath = {id};
    record.response = cr::Response::S1;
    journal.trials[static_cast<std::size_t>(id)] = record;
  }
  cr::CrashTestRecord nested;
  nested.region = 9;
  nested.regionPath = {1, 9};
  nested.response = cr::Response::S2;
  nested.extraIterations = 2;
  journal.trials[12] = nested;

  cr::CampaignProfile profile;
  profile.strideBytes = 64;
  profile.runs = 1;
  profile.regionAccesses[rt::kMainLoopEnd] = 5;
  for (rt::PointId id = 0; id < 12; ++id) {
    profile.regionAccesses[id] = 10 + static_cast<std::uint64_t>(id);
  }
  const std::string metrics = testing::TempDir() + "report_region_labels.json";
  {
    std::ofstream out(metrics);
    out << "{\"profile\": " << cr::campaignProfileJson(profile) << "}\n";
  }
  const std::string md = cr::renderFlightReport(journal, "", metrics);
  std::remove(metrics.c_str());

  std::vector<std::string> outcomes{"R1", "R2", "R2>R10"};
  std::vector<std::string> shares{"main"};
  for (int r = 1; r <= 12; ++r) {
    std::string label = "R";
    label += std::to_string(r);
    if (r > 2) outcomes.push_back(label);
    shares.push_back(label);
  }
  EXPECT_EQ(tableLabels(md, "## Per-region outcomes"), outcomes);
  EXPECT_EQ(tableLabels(md, "### Region access shares"), shares);
  EXPECT_EQ(md.find("`R0`"), std::string::npos) << md;
}
