// ServeClient: a minimal blocking client for the espresso_serve framed-RPC
// protocol, plus request builders producing the wire JSON. Used by the serve_demo
// example, the CI smoke harness, and the server integration tests — one
// implementation of the protocol on each side, tested against itself.
#ifndef SRC_SERVER_CLIENT_H_
#define SRC_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/server/frame.h"

namespace espresso::server {

// Budget knobs for BuildSelectRequest; default-constructed = no budget object.
struct RequestBudget {
  int64_t deadline_ms = -1;          // < 0 = omit
  int64_t threads = -1;              // < 0 = omit
  int64_t offload_search_budget = -1;  // < 0 = omit
  bool any() const { return deadline_ms >= 0 || threads >= 0 || offload_search_budget >= 0; }
};

// Wire JSON for a select request carrying the three INI payloads verbatim.
std::string BuildSelectRequest(std::string_view id, std::string_view tenant,
                               std::string_view model_ini, std::string_view gc_ini,
                               std::string_view system_ini,
                               const RequestBudget& budget = {});
// `format` is "prometheus" or "json".
std::string BuildMetricsRequest(std::string_view id, std::string_view format);
std::string BuildHealthRequest(std::string_view id);

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Connects to 127.0.0.1:<port>. Returns false with *error set on failure.
  bool Connect(uint16_t port, std::string* error = nullptr);

  // One round trip: writes `request` as a frame, reads one response frame into
  // *response. Returns false with *error set on any transport failure.
  bool Call(std::string_view request, std::string* response,
            std::string* error = nullptr,
            size_t max_frame_bytes = kDefaultMaxFrameBytes);

  void Close();
  bool connected() const { return fd_ >= 0; }
  // The connected socket (-1 when closed), for inspecting its options.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace espresso::server

#endif  // SRC_SERVER_CLIENT_H_
