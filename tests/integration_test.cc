// Full-system integration: the paper's two-phase extension model end to
// end. A web-server extension (SPIN shipped one, §3) is dynamically linked
// against the system's exported interfaces — it discovers the VFS events
// through the linker, not through compile-time coupling — then serves a
// file over the TCP stack to a client on the simulated peer machine.
#include <string>

#include <gtest/gtest.h>

#include "src/emul/osf.h"
#include "src/fs/vfs.h"
#include "src/kernel/kernel.h"
#include "src/linker/domain.h"
#include "src/net/tcp.h"
#include "src/profile/profile.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

// The web-server extension. Its only ties to the system are the symbols it
// resolves at link time and the handlers it installs afterwards.
class WebServer {
 public:
  WebServer(Domain& system, Dispatcher& dispatcher, net::Host& host,
            uint16_t port)
      : module_("WebServer"),
        open_(system.GetEvent<int64_t(const char*, int32_t)>("Fs.Open")),
        read_(system.GetEvent<int64_t(int64_t, char*, int64_t)>("Fs.Read")),
        close_(system.GetEvent<int64_t(int64_t)>("Fs.Close")),
        endpoint_(host, port) {
    (void)dispatcher;
    endpoint_.Listen([this](const std::string& request) {
      HandleRequest(request);
    });
  }

  int requests_served() const { return served_; }
  int errors() const { return errors_; }

 private:
  void HandleRequest(const std::string& request) {
    // "GET <path>" -> file contents, else "404".
    if (request.rfind("GET ", 0) != 0) {
      endpoint_.Send("400 bad request");
      ++errors_;
      return;
    }
    std::string path = request.substr(4);
    int64_t fd = open_->Raise(path.c_str(), 0);
    if (fd < 0) {
      endpoint_.Send("404 not found");
      ++errors_;
      return;
    }
    std::string body;
    char buffer[1024];
    int64_t n = 0;
    while ((n = read_->Raise(fd, buffer, sizeof(buffer))) > 0) {
      body.append(buffer, static_cast<size_t>(n));
    }
    close_->Raise(fd);
    endpoint_.Send("200 " + body);
    ++served_;
  }

  Module module_;
  Event<int64_t(const char*, int32_t)>* open_;
  Event<int64_t(int64_t, char*, int64_t)>* read_;
  Event<int64_t(int64_t)>* close_;
  net::TcpEndpoint endpoint_;
  int served_ = 0;
  int errors_ = 0;
};

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    wire_.Attach(server_host_, client_host_);
    // Phase 1 of §2: the system exports its interfaces as a domain; the
    // extension links against them.
    Domain& system = linker_.CreateDomain("system", &vfs_.module());
    system.ExportEvent(vfs_.Open);
    system.ExportEvent(vfs_.Read);
    system.ExportEvent(vfs_.CloseFd);
    system.ExportEvent(kernel_.MachineTrapSyscall);

    Domain& extension = linker_.CreateDomain("webserver", &ext_module_);
    extension.ImportEvent<int64_t(const char*, int32_t)>("Fs.Open");
    extension.ImportEvent<int64_t(int64_t, char*, int64_t)>("Fs.Read");
    extension.ImportEvent<int64_t(int64_t)>("Fs.Close");
    linker_.LinkAgainstAll(extension);
    system_domain_ = &extension;
  }

  void SeedFile(const std::string& path, const std::string& content) {
    int64_t fd = vfs_.Open.Raise(path.c_str(), fs::kOpenCreate);
    ASSERT_GE(fd, 0);
    vfs_.Write.Raise(fd, content.data(),
                     static_cast<int64_t>(content.size()));
    vfs_.CloseFd.Raise(fd);
  }

  std::string Fetch(const std::string& request) {
    std::string response;
    net::TcpEndpoint client(client_host_, next_client_port_++);
    client.Connect(server_host_.ip(), 80,
                   [&](const std::string& data) { response += data; });
    sim_.Run();
    client.Send(request);
    sim_.Run();
    return response;
  }

  Module ext_module_{"WebServerExt"};
  Dispatcher dispatcher_{EagerConfig()};
  Kernel kernel_{&dispatcher_};
  fs::Vfs vfs_{&dispatcher_};
  Linker linker_;
  Domain* system_domain_ = nullptr;
  sim::Simulator sim_;
  net::Wire wire_{&sim_, sim::LinkModel{}};
  net::Host server_host_{"server", 0x0a000001, &dispatcher_};
  net::Host client_host_{"client", 0x0a000002, &dispatcher_};
  uint16_t next_client_port_ = 40000;
};

TEST_F(IntegrationTest, LinkedExtensionServesFiles) {
  SeedFile("/htdocs/index.html", "<html>SPIN lives</html>");
  WebServer server(*system_domain_, dispatcher_, server_host_, 80);

  std::string response = Fetch("GET /htdocs/index.html");
  EXPECT_EQ(response, "200 <html>SPIN lives</html>");
  EXPECT_EQ(server.requests_served(), 1);
  EXPECT_EQ(server.errors(), 0);
}

TEST_F(IntegrationTest, MissingFileIs404) {
  WebServer server(*system_domain_, dispatcher_, server_host_, 80);
  EXPECT_EQ(Fetch("GET /nope"), "404 not found");
  EXPECT_EQ(server.errors(), 1);
}

TEST_F(IntegrationTest, LargeFileStreamsAcrossSegments) {
  std::string big(20000, 'W');
  SeedFile("/htdocs/big", big);
  WebServer server(*system_domain_, dispatcher_, server_host_, 80);
  std::string response = Fetch("GET /htdocs/big");
  EXPECT_EQ(response.size(), 4 + big.size());
  EXPECT_EQ(response.substr(0, 4), "200 ");
  EXPECT_EQ(response.substr(4), big);
}

TEST_F(IntegrationTest, ProfilerObservesTheWholeStack) {
  SeedFile("/htdocs/index.html", "hello");
  WebServer server(*system_domain_, dispatcher_, server_host_, 80);
  profile::Profiler profiler(dispatcher_);
  profiler.Reset();
  Fetch("GET /htdocs/index.html");
  bool saw_tcp = false;
  bool saw_fs = false;
  for (const auto& row : profiler.Snapshot()) {
    if (row.name == "Tcp.PacketArrived" && row.raised > 0) {
      saw_tcp = true;
    }
    if (row.name == "Fs.Open" && row.raised > 0) {
      saw_fs = true;
    }
  }
  EXPECT_TRUE(saw_tcp);
  EXPECT_TRUE(saw_fs);
}

TEST_F(IntegrationTest, UnlinkedSymbolIsInaccessible) {
  // An extension that failed to import a symbol cannot reach it.
  Domain& rogue = linker_.CreateDomain("rogue", &ext_module_);
  EXPECT_THROW(
      (rogue.GetEvent<int64_t(const char*, int32_t)>("Fs.Open")),
      LinkError);
}

}  // namespace
}  // namespace spin
