#include "src/obs/http_exporter.h"

#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ASKETCH_HTTP_SUPPORTED 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define ASKETCH_HTTP_SUPPORTED 0
#endif

namespace asketch {
namespace obs {

MetricsHttpServer::MetricsHttpServer() = default;

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::AddHandler(std::string path,
                                   std::string content_type,
                                   Handler handler) {
  routes_[std::move(path)] = Route{std::move(content_type),
                                   std::move(handler)};
}

#if ASKETCH_HTTP_SUPPORTED

bool MetricsHttpServer::Start(uint16_t port) {
  if (listen_fd_ >= 0) return false;  // already running
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // 100 ms poll timeout bounds Stop() latency without a wakeup pipe.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

namespace {

/// First line of an HTTP request is "METHOD SP path SP version"; returns
/// the path (query string stripped) or empty on anything but a GET.
std::string ParseRequestPath(const char* request, size_t length) {
  const std::string_view text(request, length);
  if (text.substr(0, 4) != "GET ") return "";
  const size_t start = 4;
  size_t end = start;
  while (end < text.size() && text[end] != ' ' && text[end] != '\r' &&
         text[end] != '\n' && text[end] != '?') {
    ++end;
  }
  return std::string(text.substr(start, end - start));
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

void MetricsHttpServer::HandleConnection(int client_fd) {
  // Read until the blank line that ends the request head, at most 2 KiB
  // (anything larger is not a client we support) and with a 1 s poll per
  // read. Closing with head bytes still unread would make the kernel
  // reset the connection and cut off the response.
  char buffer[2048];
  size_t n = 0;
  while (n < sizeof(buffer) - 1 &&
         std::string_view(buffer, n).find("\r\n\r\n") ==
             std::string_view::npos) {
    pollfd pfd{};
    pfd.fd = client_fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 1000) <= 0) return;
    const ssize_t got =
        ::recv(client_fd, buffer + n, sizeof(buffer) - 1 - n, 0);
    if (got <= 0) return;
    n += static_cast<size_t>(got);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  const std::string path = ParseRequestPath(buffer, n);
  const auto it = routes_.find(path);
  std::string body, status, content_type;
  if (it == routes_.end()) {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found; try /metrics\n";
  } else {
    status = "200 OK";
    content_type = it->second.content_type;
    body = it->second.handler();
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status.c_str(), content_type.c_str(), body.size());
  SendAll(client_fd, std::string(header) + body);
}

#else  // !ASKETCH_HTTP_SUPPORTED

bool MetricsHttpServer::Start(uint16_t) { return false; }
void MetricsHttpServer::Stop() {}
void MetricsHttpServer::Serve() {}
void MetricsHttpServer::HandleConnection(int) {}

#endif  // ASKETCH_HTTP_SUPPORTED

}  // namespace obs
}  // namespace asketch
