#include "obs/exposition_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cad::obs {

namespace {

constexpr int kPollTimeoutMs = 250;   // backstop; Stop() wakes via the pipe
constexpr size_t kMaxRequestBytes = 4096;

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string response = "HTTP/1.0 ";
  response += std::to_string(code);
  response += ' ';
  response += reason;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

// Outcome of looking up one integer query parameter.
enum class QueryParam { kAbsent, kOk, kMalformed };

// Finds `key` ("name=") in the query string and parses its decimal value;
// kMalformed covers empty, non-digit and overflowing values.
QueryParam ParseIntParam(const std::string& query, const std::string& key,
                         int* value) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (query.compare(pos, key.size(), key) == 0) {
      const std::string text = query.substr(pos + key.size(),
                                            end - pos - key.size());
      if (text.empty() || text.size() > 9) return QueryParam::kMalformed;
      long parsed = 0;
      for (char c : text) {
        if (c < '0' || c > '9') return QueryParam::kMalformed;
        parsed = parsed * 10 + (c - '0');
      }
      *value = static_cast<int>(parsed);
      return QueryParam::kOk;
    }
    pos = end + 1;
  }
  return QueryParam::kAbsent;
}

// Finds `key` ("name=") in the query string and copies its raw value;
// kMalformed only when the value is empty.
QueryParam ParseStringParam(const std::string& query, const std::string& key,
                            std::string* value) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (query.compare(pos, key.size(), key) == 0) {
      *value = query.substr(pos + key.size(), end - pos - key.size());
      return value->empty() ? QueryParam::kMalformed : QueryParam::kOk;
    }
    pos = end + 1;
  }
  return QueryParam::kAbsent;
}

}  // namespace

Result<std::unique_ptr<ExpositionServer>> ExpositionServer::Start(
    uint16_t port, Handlers handlers) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // exposition is local-only
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd);
    return Status::IoError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           err);
  }
  if (::listen(listen_fd, 8) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd);
    return Status::IoError("listen: " + err);
  }

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd);
    return Status::IoError("getsockname: " + err);
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd);
    return Status::IoError("pipe: " + err);
  }

  return std::unique_ptr<ExpositionServer>(
      new ExpositionServer(listen_fd, pipe_fds[0], pipe_fds[1],
                           ntohs(bound.sin_port), std::move(handlers)));
}

ExpositionServer::ExpositionServer(int listen_fd, int wake_read_fd,
                                   int wake_write_fd, uint16_t port,
                                   Handlers handlers)
    : listen_fd_(listen_fd),
      wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd),
      port_(port),
      handlers_(std::move(handlers)) {
  thread_ = std::thread([this] { Serve(); });
}

ExpositionServer::~ExpositionServer() {
  Stop();
  CloseFd(listen_fd_);
  CloseFd(wake_read_fd_);
  CloseFd(wake_write_fd_);
}

void ExpositionServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  const char byte = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  common::MutexLock lock(join_mu_);
  // cad-lint: allow(CL010) the documented shutdown pattern: join_mu_ exists solely to serialize concurrent Stop() calls around this join; the serve thread never takes it
  if (thread_.joinable()) thread_.join();
}

void ExpositionServer::Serve() {
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_read_fd_;
  fds[1].events = POLLIN;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    const int ready = ::poll(fds, 2, kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // poll is irrecoverably broken; exposition goes dark
    }
    if (fds[1].revents != 0) return;  // Stop() wake
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    CloseFd(conn);
  }
}

void ExpositionServer::HandleConnection(int fd) {
  // Read until the request line is complete; HTTP/1.0, headers ignored.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t eol = request.find('\n');
  if (eol == std::string::npos) return;
  std::string line = request.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();

  const std::string response = BuildResponse(line);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::write(fd, response.data() + sent,
                              response.size() - sent);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

std::string ExpositionServer::BuildResponse(const std::string& request_line) {
  // "GET <target> HTTP/1.x"
  const size_t method_end = request_line.find(' ');
  if (method_end == std::string::npos) {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "malformed request line\n");
  }
  if (request_line.compare(0, method_end, "GET") != 0) {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  const size_t target_end = request_line.find(' ', method_end + 1);
  std::string target =
      target_end == std::string::npos
          ? request_line.substr(method_end + 1)
          : request_line.substr(method_end + 1, target_end - method_end - 1);

  std::string query;
  const size_t question = target.find('?');
  if (question != std::string::npos) {
    query = target.substr(question + 1);
    target.resize(question);
  }

  if (target == "/metrics") {
    const std::string body =
        handlers_.metrics_text ? handlers_.metrics_text() : std::string();
    return HttpResponse(200, "OK", "text/plain; version=0.0.4", body);
  }
  if (target == "/healthz") {
    const std::string body =
        handlers_.healthz_json ? handlers_.healthz_json() : "{}";
    return HttpResponse(200, "OK", "application/json", body);
  }
  // Both query endpoints route by an optional tenant=; an empty value is
  // malformed, an absent one reaches the handler as "".
  std::string tenant;
  const QueryParam tenant_param = ParseStringParam(query, "tenant=", &tenant);
  const std::string unknown_tenant =
      tenant.empty() ? "" : "tenant '" + tenant + "' unknown, or ";
  if (target == "/explain") {
    int round = -1;
    if (tenant_param == QueryParam::kMalformed ||
        ParseIntParam(query, "round=", &round) != QueryParam::kOk) {
      return HttpResponse(
          400, "Bad Request", "text/plain",
          "usage: /explain?[tenant=<name>&]round=<non-negative integer>\n");
    }
    const std::string body =
        handlers_.explain_json ? handlers_.explain_json(tenant, round)
                               : std::string();
    if (body.empty()) {
      return HttpResponse(404, "Not Found", "text/plain",
                          unknown_tenant + "round " + std::to_string(round) +
                              " is not in the flight-recorder ring\n");
    }
    return HttpResponse(200, "OK", "application/json", body);
  }
  if (target == "/advise") {
    int from_round = -1;
    int to_round = -1;
    if (tenant_param == QueryParam::kMalformed ||
        ParseIntParam(query, "from=", &from_round) == QueryParam::kMalformed ||
        ParseIntParam(query, "to=", &to_round) == QueryParam::kMalformed) {
      return HttpResponse(400, "Bad Request", "text/plain",
                          "usage: /advise?[tenant=<name>&]from=<round>&"
                          "to=<round> (all optional)\n");
    }
    const std::string body =
        handlers_.advise_json
            ? handlers_.advise_json(tenant, from_round, to_round)
            : std::string();
    if (body.empty()) {
      return HttpResponse(404, "Not Found", "text/plain",
                          unknown_tenant +
                              "no recorded rounds in the requested range\n");
    }
    return HttpResponse(200, "OK", "application/json", body);
  }
  if (target == "/") {
    return HttpResponse(200, "OK", "text/plain",
                        "cad exposition endpoints:\n"
                        "  /metrics                      Prometheus text\n"
                        "  /healthz                      liveness JSON\n"
                        "  /explain?round=r              decision provenance JSON\n"
                        "  /advise?from=a&to=b           root-cause advice JSON\n"
                        "  a fleet takes tenant=name on /explain and /advise\n");
  }
  return HttpResponse(404, "Not Found", "text/plain", "unknown endpoint\n");
}

}  // namespace cad::obs
