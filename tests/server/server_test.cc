// Full-stack integration tests: a real ServeServer on an ephemeral loopback port,
// driven by ServeClient over TCP.
//
// The acceptance bar from the service's contract (docs/SERVICE.md):
//   * >= 8 concurrent mixed-tenant select requests each return an IR document
//     BYTE-IDENTICAL to `espresso_cli --ir-out` on the same committed configs;
//   * protocol abuse — malformed frames, oversized payloads, expired deadlines,
//     spent quotas — yields typed errors, never a crash or a dropped connection
//     without a reply (except the oversized case, where the stream is
//     desynchronised by construction and must close after the error);
//   * the cross-request warm cache is observable in response telemetry.
#include "src/server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/server/client.h"
#include "src/util/json_reader.h"

namespace espresso::server {
namespace {

#ifndef ESPRESSO_CONFIG_DIR
#error "ESPRESSO_CONFIG_DIR must point at the repository's configs/ directory"
#endif
#ifndef ESPRESSO_CLI_PATH
#error "ESPRESSO_CLI_PATH must point at the espresso_cli executable"
#endif

std::string ConfigPath(const std::string& name) {
  return std::string(ESPRESSO_CONFIG_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The two committed config triples the mixed-tenant test serves side by side.
struct Triple {
  const char* model;
  const char* gc;
  const char* system;
};
constexpr Triple kTripleA = {"model_gpt2.ini", "gc_dgc.ini", "system_nvlink.ini"};
constexpr Triple kTripleB = {"model_gpt2.ini", "gc_efsignsgd_limited.ini",
                             "system_pcie.ini"};

// Runs `espresso_cli --ir-out` on a triple and returns the document bytes. One
// subprocess per triple per test binary run (cached), because the CLI is the
// ground truth the server must match bit for bit.
std::string CliIr(const Triple& triple) {
  const std::string out_path = ::testing::TempDir() + "/cli_" +
                               std::string(triple.gc) + "_" + triple.system + ".ir.json";
  const std::string command = std::string(ESPRESSO_CLI_PATH) + " " +
                              ConfigPath(triple.model) + " " + ConfigPath(triple.gc) +
                              " " + ConfigPath(triple.system) +
                              " --ir-out=" + out_path + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  const std::string ir = ReadFileOrDie(out_path);
  std::remove(out_path.c_str());
  return ir;
}

std::string SelectRequestFor(const Triple& triple, const std::string& id,
                             const std::string& tenant,
                             const RequestBudget& budget = {}) {
  return BuildSelectRequest(id, tenant, ReadFileOrDie(ConfigPath(triple.model)),
                            ReadFileOrDie(ConfigPath(triple.gc)),
                            ReadFileOrDie(ConfigPath(triple.system)), budget);
}

struct ParsedResponse {
  bool ok = false;
  std::string code;     // error code when !ok
  std::string ir;       // served IR document when ok
  uint64_t cache_hits = 0;
};

ParsedResponse Parse(const std::string& response) {
  ParsedResponse out;
  const JsonParseResult parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok) << response;
  if (!parsed.ok) {
    return out;
  }
  const JsonValue* ok = parsed.value.Find("ok");
  out.ok = ok != nullptr && ok->IsBool() && ok->bool_value;
  if (!out.ok) {
    const JsonValue* error = parsed.value.Find("error");
    const JsonValue* code = error != nullptr ? error->Find("code") : nullptr;
    out.code = code != nullptr ? code->text : "<missing>";
    return out;
  }
  if (const JsonValue* ir = parsed.value.Find("ir"); ir != nullptr && ir->IsString()) {
    out.ir = ir->text;
  }
  if (const JsonValue* telemetry = parsed.value.Find("telemetry");
      telemetry != nullptr) {
    if (const JsonValue* hits = telemetry->Find("cache_hits"); hits != nullptr) {
      hits->AsUint64(&out.cache_hits);
    }
  }
  return out;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void StartServer(ServiceConfig service_config = {}, ServerOptions options = {}) {
    service_ = std::make_unique<SelectionService>(service_config, nullptr);
    options.worker_threads = 4;
    server_ = std::make_unique<ServeServer>(service_.get(), options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }
  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  std::unique_ptr<SelectionService> service_;
  std::unique_ptr<ServeServer> server_;
};

// The headline acceptance test: eight concurrent clients, two tenants, two config
// triples, every response byte-identical to the CLI on the same configs.
TEST_F(ServeServerTest, ConcurrentMixedTenantRequestsMatchCliBitForBit) {
  StartServer();
  const std::string expected_a = CliIr(kTripleA);
  const std::string expected_b = CliIr(kTripleB);
  ASSERT_FALSE(expected_a.empty());
  ASSERT_FALSE(expected_b.empty());
  ASSERT_NE(expected_a, expected_b);

  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &responses] {
      const bool is_a = i % 2 == 0;
      const std::string tenant = is_a ? "tenant-a" : "tenant-b";
      const std::string request =
          SelectRequestFor(is_a ? kTripleA : kTripleB,
                           "concurrent-" + std::to_string(i), tenant);
      ServeClient client;
      std::string error;
      ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;
      ASSERT_TRUE(client.Call(request, &responses[i], &error)) << error;
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    const ParsedResponse parsed = Parse(responses[i]);
    ASSERT_TRUE(parsed.ok) << "client " << i << ": " << responses[i];
    EXPECT_EQ(parsed.ir, i % 2 == 0 ? expected_a : expected_b)
        << "client " << i << " IR differs from espresso_cli --ir-out";
  }
  EXPECT_EQ(service_->stats().served, static_cast<uint64_t>(kClients));
  EXPECT_GT(service_->TenantUsed("tenant-a"), 0u);
  EXPECT_GT(service_->TenantUsed("tenant-b"), 0u);
}

TEST_F(ServeServerTest, WarmCrossRequestCacheIsObservableOverTheWire) {
  StartServer();
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;

  std::string first_response;
  ASSERT_TRUE(client.Call(SelectRequestFor(kTripleA, "cold", "alice"),
                          &first_response, &error))
      << error;
  const ParsedResponse cold = Parse(first_response);
  ASSERT_TRUE(cold.ok) << first_response;

  // A different connection AND tenant still hits the shared per-triple cache.
  ServeClient second;
  ASSERT_TRUE(second.Connect(server_->port(), &error)) << error;
  std::string second_response;
  ASSERT_TRUE(second.Call(SelectRequestFor(kTripleA, "warm", "bob"),
                          &second_response, &error))
      << error;
  const ParsedResponse warm = Parse(second_response);
  ASSERT_TRUE(warm.ok) << second_response;
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_EQ(warm.ir, cold.ir);
}

TEST_F(ServeServerTest, MalformedFrameGetsATypedErrorAndTheConnectionSurvives) {
  StartServer();
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;

  std::string response;
  ASSERT_TRUE(client.Call("not json at all {{{", &response, &error)) << error;
  EXPECT_EQ(Parse(response).code, "malformed-request");

  // The framing is intact (the frame itself was well-formed), so the SAME
  // connection keeps serving.
  ASSERT_TRUE(client.Call(BuildHealthRequest("after-garbage"), &response, &error))
      << error;
  EXPECT_TRUE(Parse(response).ok) << response;
}

TEST_F(ServeServerTest, OversizedPayloadIsRefusedWithATypedError) {
  ServerOptions options;
  options.max_frame_bytes = 512;
  StartServer({}, options);
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;

  // Far over the server's 512-byte frame limit. The server refuses from the
  // prefix, replies with a typed error, and closes (the stream is desynchronised).
  const std::string oversized(4096, 'x');
  std::string response;
  ASSERT_TRUE(client.Call(oversized, &response, &error)) << error;
  EXPECT_EQ(Parse(response).code, "payload-too-large");
}

TEST_F(ServeServerTest, ExpiredDeadlineIsATypedErrorOverTheWire) {
  StartServer();
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;
  RequestBudget budget;
  budget.deadline_ms = 0;
  std::string response;
  ASSERT_TRUE(client.Call(SelectRequestFor(kTripleA, "late", "alice", budget),
                          &response, &error))
      << error;
  EXPECT_EQ(Parse(response).code, "deadline-expired");
}

TEST_F(ServeServerTest, QuotaExhaustionOnlyStarvesTheSpentTenant) {
  ServiceConfig config;
  config.tenant_quotas["starved"] = 1;
  StartServer(config);
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;

  std::string response;
  ASSERT_TRUE(client.Call(SelectRequestFor(kTripleA, "q1", "starved"), &response,
                          &error))
      << error;
  EXPECT_TRUE(Parse(response).ok) << response;
  ASSERT_TRUE(client.Call(SelectRequestFor(kTripleA, "q2", "starved"), &response,
                          &error))
      << error;
  EXPECT_EQ(Parse(response).code, "quota-exhausted");
  ASSERT_TRUE(client.Call(SelectRequestFor(kTripleA, "q3", "unmetered"), &response,
                          &error))
      << error;
  EXPECT_TRUE(Parse(response).ok) << response;
}

// Regression for the transport stall: a frame's prefix and payload sent as two
// writes left Nagle's algorithm holding the payload until the peer's delayed ACK,
// ~88 ms per round trip. 100 health calls then took ~8.8 s; with one write per
// frame and TCP_NODELAY they take ~10 ms. The bound sits far from both, so the
// test catches the stall without gating on wall time.
TEST_F(ServeServerTest, HealthRoundTripsDoNotStallOnDelayedAck) {
  StartServer();
  ServeClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;

  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    std::string response;
    ASSERT_TRUE(client.Call(BuildHealthRequest("rtt-" + std::to_string(i)),
                            &response, &error))
        << error;
    ASSERT_TRUE(Parse(response).ok) << response;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 2.0) << "100 health round trips took " << seconds << " s";
}

// Raw loopback connect, bypassing ServeClient so the test can write torn frames.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Clients that send a complete request and then RST the connection before the
// server writes its reply. The server's response write then hits a dead peer;
// without MSG_NOSIGNAL that raised SIGPIPE and killed the whole daemon (this
// test ran in-process, so the crash took the test binary down with it).
TEST_F(ServeServerTest, PeerResetBeforeResponseWriteDoesNotCrashTheServer) {
  StartServer();
  std::string error;

  for (int i = 0; i < 8; ++i) {
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    const std::string payload = "{\"type\":\"health\",\"id\":\"rst\"}";
    const uint32_t length = static_cast<uint32_t>(payload.size());
    const unsigned char prefix[4] = {
        static_cast<unsigned char>((length >> 24) & 0xff),
        static_cast<unsigned char>((length >> 16) & 0xff),
        static_cast<unsigned char>((length >> 8) & 0xff),
        static_cast<unsigned char>(length & 0xff)};
    ASSERT_EQ(::write(fd, prefix, 4), 4);
    ASSERT_EQ(::write(fd, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
    // SO_LINGER with zero timeout turns close() into an immediate RST, so the
    // server's pending response write lands on a reset connection.
    const linger hard_reset = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof(hard_reset));
    ::close(fd);
  }

  // Give the server time to process the doomed requests and attempt the writes.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Call(BuildHealthRequest("post-reset"), &response, &error))
      << error;
  EXPECT_TRUE(Parse(response).ok) << response;
}

TEST_F(ServeServerTest, AbruptDisconnectMidFrameDoesNotCrashTheServer) {
  StartServer();
  std::string error;

  // A client that promises a 1 KiB frame, delivers 10 bytes, and vanishes.
  const int torn = RawConnect(server_->port());
  ASSERT_GE(torn, 0);
  const unsigned char prefix[4] = {0x00, 0x00, 0x04, 0x00};
  ASSERT_EQ(::write(torn, prefix, 4), 4);
  ASSERT_EQ(::write(torn, "0123456789", 10), 10);
  ::close(torn);

  // And one that disconnects before even finishing the prefix.
  const int headless = RawConnect(server_->port());
  ASSERT_GE(headless, 0);
  ASSERT_EQ(::write(headless, prefix, 2), 2);
  ::close(headless);

  // The server is still healthy and serving.
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Call(BuildHealthRequest("still-alive"), &response, &error))
      << error;
  EXPECT_TRUE(Parse(response).ok) << response;
}

}  // namespace
}  // namespace espresso::server
