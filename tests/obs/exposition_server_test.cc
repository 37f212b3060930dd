#include "obs/exposition_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "testing/http_client.h"

namespace cad::obs {
namespace {

using cad::testing::HttpGet;
using cad::testing::HttpResponse;

ExpositionServer::Handlers TestHandlers() {
  ExpositionServer::Handlers handlers;
  handlers.metrics_text = [] {
    return std::string("# TYPE cad_rounds_total counter\ncad_rounds_total 3\n");
  };
  handlers.healthz_json = [] { return std::string("{\"rounds\":3}"); };
  // One untenanted surface plus tenant "t1"; only round 7 "exists" in each.
  handlers.explain_json = [](const std::string& tenant, int round) {
    if ((!tenant.empty() && tenant != "t1") || round != 7) return std::string();
    return "{\"tenant\":\"" + tenant + "\",\"record\":{\"round\":7}}";
  };
  handlers.advise_json = [](const std::string& tenant, int from_round,
                            int to_round) {
    if (!tenant.empty() && tenant != "t1") return std::string();
    return "{\"tenant\":\"" + tenant + "\",\"from\":" +
           std::to_string(from_round) + ",\"to\":" + std::to_string(to_round) +
           "}";
  };
  return handlers;
}

std::unique_ptr<ExpositionServer> StartOrDie() {
  Result<std::unique_ptr<ExpositionServer>> server =
      ExpositionServer::Start(0, TestHandlers());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

TEST(ExpositionServerTest, ServesMetricsOnEphemeralPort) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  ASSERT_GT(server->port(), 0);

  const HttpResponse response = HttpGet(server->port(), "/metrics");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.headers.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find("cad_rounds_total 3"), std::string::npos);
  EXPECT_GE(server->requests_served(), 1u);
}

TEST(ExpositionServerTest, ServesHealthzAsJson) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  const HttpResponse response = HttpGet(server->port(), "/healthz");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.headers.find("application/json"), std::string::npos);
  EXPECT_EQ(response.body, "{\"rounds\":3}");
}

TEST(ExpositionServerTest, ExplainRoutesRoundQuery) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  const HttpResponse hit = HttpGet(server->port(), "/explain?round=7");
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.status_code, 200);
  EXPECT_NE(hit.body.find("\"round\":7"), std::string::npos);

  const HttpResponse miss = HttpGet(server->port(), "/explain?round=8");
  ASSERT_TRUE(miss.ok);
  EXPECT_EQ(miss.status_code, 404);
}

TEST(ExpositionServerTest, ExplainAndAdviseRouteTenantQueries) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  const HttpResponse explain =
      HttpGet(server->port(), "/explain?tenant=t1&round=7");
  ASSERT_TRUE(explain.ok);
  EXPECT_EQ(explain.status_code, 200);
  EXPECT_EQ(explain.body, "{\"tenant\":\"t1\",\"record\":{\"round\":7}}");
  EXPECT_EQ(HttpGet(server->port(), "/explain?round=7&tenant=t1").status_code,
            200);
  EXPECT_EQ(HttpGet(server->port(), "/explain?tenant=t1&round=8").status_code,
            404);
  EXPECT_EQ(
      HttpGet(server->port(), "/explain?tenant=nobody&round=7").status_code,
      404);

  const HttpResponse advise =
      HttpGet(server->port(), "/advise?tenant=t1&from=2&to=5");
  ASSERT_TRUE(advise.ok);
  EXPECT_EQ(advise.status_code, 200);
  EXPECT_EQ(advise.body, "{\"tenant\":\"t1\",\"from\":2,\"to\":5}");
  // Absent bounds reach the handler as -1, an absent tenant as "".
  EXPECT_EQ(HttpGet(server->port(), "/advise").body,
            "{\"tenant\":\"\",\"from\":-1,\"to\":-1}");
  EXPECT_EQ(HttpGet(server->port(), "/advise?tenant=nobody").status_code, 404);
}

TEST(ExpositionServerTest, RejectsMalformedRequests) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  EXPECT_EQ(HttpGet(server->port(), "/explain").status_code, 400);
  EXPECT_EQ(HttpGet(server->port(), "/explain?round=abc").status_code, 400);
  EXPECT_EQ(HttpGet(server->port(), "/explain?round=-1").status_code, 400);
  EXPECT_EQ(HttpGet(server->port(), "/explain?round=1234567890123").status_code,
            400);
  EXPECT_EQ(HttpGet(server->port(), "/explain?tenant=&round=7").status_code,
            400);
  EXPECT_EQ(HttpGet(server->port(), "/explain?tenant=t1").status_code, 400);
  EXPECT_EQ(HttpGet(server->port(), "/advise?from=abc").status_code, 400);
  EXPECT_EQ(HttpGet(server->port(), "/advise?tenant=&from=1").status_code,
            400);
  EXPECT_EQ(HttpGet(server->port(), "/nowhere").status_code, 404);
  EXPECT_EQ(HttpGet(server->port(), "/").status_code, 200);  // endpoint index
}

TEST(ExpositionServerTest, StopIsIdempotentAndSafeToRace) {
  std::unique_ptr<ExpositionServer> server = StartOrDie();
  const uint16_t port = server->port();
  EXPECT_EQ(HttpGet(port, "/healthz").status_code, 200);

  std::thread racer([&server] { server->Stop(); });
  server->Stop();
  racer.join();
  server->Stop();  // and again after it is already down

  // Destruction after Stop releases the port: a new connection must fail at
  // transport level once the listener is closed.
  server.reset();
  EXPECT_FALSE(HttpGet(port, "/healthz").ok);
}

TEST(ExpositionServerTest, ConcurrentScrapesWhileHandlersMutateState) {
  // Handlers read an atomic a "producer" thread keeps bumping — the shape of
  // StreamingCad wiring (handlers racing the ingest path). Run under TSan by
  // verify_matrix.sh's obs stage.
  std::atomic<int> rounds{0};
  ExpositionServer::Handlers handlers;
  handlers.metrics_text = [&rounds] {
    return "cad_rounds_total " + std::to_string(rounds.load()) + "\n";
  };
  handlers.healthz_json = [&rounds] {
    return "{\"rounds\":" + std::to_string(rounds.load()) + "}";
  };
  handlers.explain_json = [&rounds](const std::string&, int round) {
    return round <= rounds.load() ? std::string("{\"round\":0}")
                                  : std::string();
  };
  Result<std::unique_ptr<ExpositionServer>> started =
      ExpositionServer::Start(0, std::move(handlers));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<ExpositionServer> server = std::move(started).value();

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load()) rounds.fetch_add(1);
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 3; ++i) {
    scrapers.emplace_back([&, i] {
      const char* const targets[] = {"/metrics", "/healthz",
                                     "/explain?round=1"};
      for (int request = 0; request < 20; ++request) {
        const HttpResponse response =
            HttpGet(server->port(), targets[i % 3]);
        if (!response.ok || response.status_code >= 500) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop.store(true);
  producer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->requests_served(), 60u);
}

}  // namespace
}  // namespace cad::obs
