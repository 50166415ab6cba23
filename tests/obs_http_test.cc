// Tests for the metrics HTTP exporter: a raw-socket client fetches
// registered paths and checks status lines, content types, bodies, and
// 404 handling. Skips when the sandbox forbids loopback sockets.

#include "src/obs/http_exporter.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define ASKETCH_HTTP_TEST_SUPPORTED 1
#endif

namespace asketch {
namespace obs {
namespace {

#ifdef ASKETCH_HTTP_TEST_SUPPORTED

/// Minimal HTTP client: sends the request to 127.0.0.1:port in
/// `segments`, 50 ms apart, and returns the response (headers + body) as
/// read until EOF or a socket error, or "" if connecting or sending fails.
std::string Fetch(uint16_t port, const std::vector<std::string>& segments) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  bool sent = true;
  for (size_t i = 0; i < segments.size() && sent; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sent = ::send(fd, segments[i].data(), segments[i].size(), 0) ==
           static_cast<ssize_t>(segments[i].size());
  }
  if (sent) {
    char buffer[4096];
    ssize_t got;
    while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      response.append(buffer, static_cast<size_t>(got));
    }
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return Fetch(port, {"GET " + path + " HTTP/1.0\r\n\r\n"});
}

constexpr size_t kBigBodyBytes = 3 << 19;  // 1.5 MiB

class HttpExporterTest : public testing::Test {
 protected:
  void SetUp() override {
    server_.AddHandler("/metrics", "text/plain; version=0.0.4",
                       [] { return std::string("metric_total 1\n"); });
    server_.AddHandler("/metrics.json", "application/json",
                       [this] { return std::string("{\"hits\":") +
                                    std::to_string(++handler_calls_) + "}"; });
    server_.AddHandler("/big", "text/plain",
                       [] { return std::string(kBigBodyBytes, 'x'); });
    if (!server_.Start(0)) {
      GTEST_SKIP() << "cannot bind a loopback socket in this environment";
    }
  }
  void TearDown() override { server_.Stop(); }

  MetricsHttpServer server_;
  int handler_calls_ = 0;
};

TEST_F(HttpExporterTest, ServesRegisteredPathWithContentType) {
  const std::string response = Get(server_.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("metric_total 1\n"), std::string::npos);
  EXPECT_EQ(server_.requests(), 1u);
}

TEST_F(HttpExporterTest, HandlerRunsPerRequest) {
  EXPECT_NE(Get(server_.port(), "/metrics.json").find("{\"hits\":1}"),
            std::string::npos);
  EXPECT_NE(Get(server_.port(), "/metrics.json").find("{\"hits\":2}"),
            std::string::npos);
}

TEST_F(HttpExporterTest, UnknownPathReturns404) {
  const std::string response = Get(server_.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
}

TEST_F(HttpExporterTest, QueryStringIsStrippedFromPath) {
  const std::string response = Get(server_.port(), "/metrics?x=1");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
}

TEST_F(HttpExporterTest, NonGetMethodRejected) {
  const std::string response =
      Fetch(server_.port(), {"POST /metrics HTTP/1.0\r\n\r\n"});
  EXPECT_EQ(response.find("200 OK"), std::string::npos) << response;
}

TEST_F(HttpExporterTest, RequestHeadSplitAcrossSegmentsGetsWholeBody) {
  // The blank line that ends the head arrives 50 ms after the request
  // line. Left unread at close, it would make the kernel reset the
  // connection and drop the response's tail.
  const std::string response =
      Fetch(server_.port(), {"GET /big HTTP/1.0\r\n", "\r\n"});
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  const size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(response.size() - body - 4, kBigBodyBytes);
}

TEST_F(HttpExporterTest, EphemeralPortIsResolved) {
  EXPECT_NE(server_.port(), 0u);
}

TEST_F(HttpExporterTest, StopIsIdempotentAndRestartableInstanceNot) {
  server_.Stop();
  server_.Stop();
  EXPECT_EQ(Get(server_.port(), "/metrics"), "");
}

#else  // !ASKETCH_HTTP_TEST_SUPPORTED

TEST(HttpExporterTest, StartFailsGracefullyOffPosix) {
  MetricsHttpServer server;
  EXPECT_FALSE(server.Start(0));
}

#endif

}  // namespace
}  // namespace obs
}  // namespace asketch
