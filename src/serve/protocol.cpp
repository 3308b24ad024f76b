#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/json_report.hpp"

namespace dfly::serve {

Request parse_request(const std::string& line) {
  JsonReader in(line, "request");
  Request request;
  bool have_op = false;
  std::string mode;
  in.expect('{');
  if (!in.consume('}')) {
    for (;;) {
      const std::string key = in.parse_string();
      in.expect(':');
      if (key == "op") {
        request.op = in.parse_string();
        have_op = true;
      } else if (key == "plan") {
        request.plan_text = in.parse_string();
      } else if (key == "set") {
        request.sets = in.parse_string_object();
      } else if (key == "campaign") {
        request.campaign = in.parse_string();
      } else if (key == "mode") {
        mode = in.parse_string();
      } else if (in.peek() == '"') {
        in.parse_string();  // tolerate unknown string fields (forward compat)
      } else {
        in.parse_scalar();
      }
      if (in.consume('}')) break;
      in.expect(',');
    }
  }
  if (!in.at_end()) in.fail("trailing content after request object");
  if (!have_op) throw std::invalid_argument("request: missing \"op\"");
  if (request.op != "submit" && request.op != "status" && request.op != "cancel" &&
      request.op != "stats" && request.op != "shutdown") {
    throw std::invalid_argument("request: unknown op '" + request.op + "'");
  }
  if (request.op == "submit" && request.plan_text.empty()) {
    throw std::invalid_argument("request: submit needs a non-empty \"plan\"");
  }
  if ((request.op == "status" || request.op == "cancel") && request.campaign.empty()) {
    throw std::invalid_argument("request: " + request.op + " needs a \"campaign\" id");
  }
  if (!mode.empty()) {
    if (mode != "drain" && mode != "now") {
      throw std::invalid_argument("request: shutdown mode wants drain|now, got '" + mode + "'");
    }
    request.drain = mode == "drain";
  }
  return request;
}

std::string format_request(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.key("op").value(request.op);
  if (!request.plan_text.empty()) w.key("plan").value(request.plan_text);
  if (!request.sets.empty()) {
    w.key("set").begin_object();
    for (const auto& [key, value] : request.sets) w.key(key).value(value);
    w.end_object();
  }
  if (!request.campaign.empty()) w.key("campaign").value(request.campaign);
  if (request.op == "shutdown" && !request.drain) w.key("mode").value("now");
  w.end_object();
  return w.str();
}

bool is_control_line(const std::string& line) {
  return line.rfind("{\"serve\":", 0) == 0;
}

std::string control_field(const std::string& line, const std::string& key) {
  JsonReader in(line, "request");
  std::string value;
  return in.find_field(key, value) ? value : "";
}

// --- socket helpers ----------------------------------------------------------

int connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket(): ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("serve: cannot connect to " + socket_path + ": " +
                             std::strerror(saved));
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-campaign must surface as EPIPE
    // (which the session turns into a cancel), never as a fatal SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + written, data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool pop_line(std::string& buffer, std::string& line) {
  const std::size_t newline = buffer.find('\n');
  if (newline == std::string::npos) return false;
  line.assign(buffer, 0, newline);
  buffer.erase(0, newline + 1);
  return true;
}

// --- client modes ------------------------------------------------------------

namespace {

/// Read response lines until EOF, calling on_line for each complete line.
/// Returns false on a read error.
template <typename Fn>
bool read_lines(int fd, Fn&& on_line) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;  // server closed: response complete
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::string line;
    while (pop_line(buffer, line)) on_line(line);
  }
}

}  // namespace

int submit_plan(const std::string& socket_path, const std::string& plan_text,
                const std::vector<std::pair<std::string, std::string>>& sets,
                std::FILE* out, std::FILE* err) {
  int fd = -1;
  try {
    fd = connect_unix(socket_path);
  } catch (const std::exception& error) {
    std::fprintf(err, "dflysim: %s\n", error.what());
    return 1;
  }
  Request request;
  request.op = "submit";
  request.plan_text = plan_text;
  request.sets = sets;
  if (!write_all(fd, format_request(request) + '\n')) {
    std::fprintf(err, "dflysim: lost connection to %s while submitting\n",
                 socket_path.c_str());
    ::close(fd);
    return 1;
  }

  int status = 1;  // no "done" line = protocol/connection error
  bool done = false;
  const bool read_ok = read_lines(fd, [&](const std::string& line) {
    if (!is_control_line(line)) {
      // A raw campaign cell record: forward byte-identically.
      std::fprintf(out, "%s\n", line.c_str());
      std::fflush(out);
      return;
    }
    const std::string kind = control_field(line, "serve");
    if (kind == "accepted") {
      std::fprintf(err, "campaign %s accepted (%s cells)\n",
                   control_field(line, "campaign").c_str(),
                   control_field(line, "cells").c_str());
    } else if (kind == "cell_failed") {
      std::fprintf(err, "cell %s FAILED: %s\n", control_field(line, "cell").c_str(),
                   control_field(line, "message").c_str());
    } else if (kind == "done") {
      done = true;
      status = control_field(line, "ok") == "true" ? 0 : 2;
      std::fprintf(err, "campaign %s: %s/%s cells completed%s\n",
                   control_field(line, "campaign").c_str(),
                   control_field(line, "completed").c_str(),
                   control_field(line, "cells").c_str(),
                   control_field(line, "cancelled") == "true" ? " (cancelled)" : "");
    } else if (kind == "error") {
      done = true;
      status = 1;
      std::fprintf(err, "dflysim: server rejected request: %s\n",
                   control_field(line, "message").c_str());
    }
  });
  ::close(fd);
  if (!read_ok || !done) {
    std::fprintf(err, "dflysim: connection to %s ended before the campaign finished\n",
                 socket_path.c_str());
    return 1;
  }
  return status;
}

int request_shutdown(const std::string& socket_path, bool drain, std::FILE* err) {
  int fd = -1;
  try {
    fd = connect_unix(socket_path);
  } catch (const std::exception& error) {
    std::fprintf(err, "dflysim: %s\n", error.what());
    return 1;
  }
  Request request;
  request.op = "shutdown";
  request.drain = drain;
  bool ok = write_all(fd, format_request(request) + '\n');
  std::string reply;
  if (ok) {
    ok = false;
    read_lines(fd, [&](const std::string& line) {
      if (control_field(line, "serve") == "ok") ok = true;
      reply = line;
    });
  }
  ::close(fd);
  if (!ok) {
    std::fprintf(err, "dflysim: shutdown not acknowledged by %s%s%s\n", socket_path.c_str(),
                 reply.empty() ? "" : ": ", reply.c_str());
    return 1;
  }
  return 0;
}

}  // namespace dfly::serve
