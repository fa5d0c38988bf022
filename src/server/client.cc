#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "src/util/json_writer.h"

namespace espresso::server {

std::string BuildSelectRequest(std::string_view id, std::string_view tenant,
                               std::string_view model_ini, std::string_view gc_ini,
                               std::string_view system_ini,
                               const RequestBudget& budget) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("type", "select");
    json.Field("id", id);
    json.Field("tenant", tenant);
    json.Key("config");
    json.BeginObject();
    json.Field("model", model_ini);
    json.Field("gc", gc_ini);
    json.Field("system", system_ini);
    json.EndObject();
    if (budget.any()) {
      json.Key("budget");
      json.BeginObject();
      if (budget.deadline_ms >= 0) {
        json.Field("deadline_ms", budget.deadline_ms);
      }
      if (budget.threads >= 0) {
        json.Field("threads", budget.threads);
      }
      if (budget.offload_search_budget >= 0) {
        json.Field("offload_search_budget", budget.offload_search_budget);
      }
      json.EndObject();
    }
    json.EndObject();
  }
  return out.str();
}

std::string BuildMetricsRequest(std::string_view id, std::string_view format) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("type", "metrics");
    json.Field("id", id);
    json.Field("format", format);
    json.EndObject();
  }
  return out.str();
}

std::string BuildHealthRequest(std::string_view id) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    json.Field("type", "health");
    json.Field("id", id);
    json.EndObject();
  }
  return out.str();
}

ServeClient::~ServeClient() { Close(); }

bool ServeClient::Connect(uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = "connect 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    Close();
    return false;
  }
  // Requests are small single frames answered before the next is sent; Nagle's
  // algorithm would hold a frame's tail until the server's delayed ACK.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool ServeClient::Call(std::string_view request, std::string* response,
                       std::string* error, size_t max_frame_bytes) {
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "not connected";
    }
    return false;
  }
  if (!WriteFrame(fd_, request, error)) {
    return false;
  }
  FrameResult reply = ReadFrame(fd_, max_frame_bytes);
  if (!reply.ok()) {
    if (error != nullptr) {
      *error = std::string(FrameStatusName(reply.status)) + ": " + reply.error;
    }
    return false;
  }
  *response = std::move(reply.payload);
  return true;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace espresso::server
