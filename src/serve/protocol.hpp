#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

/// Wire protocol of the campaign daemon (`dflysim --serve`).
///
/// Newline-delimited JSON in both directions over a unix-domain socket. A
/// client sends exactly ONE request object per connection:
///
///   {"op":"submit","plan":"<plan-config text>","set":{"key":"value",...}}
///   {"op":"status","campaign":"c000007"}
///   {"op":"cancel","campaign":"c000007"}
///   {"op":"stats"}
///   {"op":"shutdown"}            // or {"op":"shutdown","mode":"now"}
///
/// and reads response lines until the server closes the connection. Every
/// server-originated control line is a JSON object whose FIRST key is
/// "serve" ({"serve":"accepted",...}, {"serve":"error",...}, ...); the only
/// non-control lines are the raw campaign JSONL cell records streamed after
/// a submit, which always start {"cell": — so a client separates the two
/// streams by prefix alone, byte-for-byte (see docs/DAEMON.md for the full
/// protocol and plan_cell_jsonl in core/plan.hpp for the cell format).
///
/// This header carries the request parser and the low-level socket helpers
/// shared by the server (src/serve/server.cpp) and the thin `--submit`
/// client (serve::submit_plan below); campaign execution lives in
/// session.hpp.
namespace dfly::serve {

/// One parsed client request.
struct Request {
  std::string op;         ///< submit | status | cancel | stats | shutdown
  std::string plan_text;  ///< submit: the plan config file's text
  /// submit: per-request config overrides, applied in order onto the parsed
  /// plan text exactly like repeated `--set=KEY=VALUE` flags.
  std::vector<std::pair<std::string, std::string>> sets;
  std::string campaign;  ///< status / cancel: the target campaign id
  bool drain{true};      ///< shutdown: finish active campaigns (false = cancel)
};

/// Parse one request line. Throws std::invalid_argument on malformed JSON,
/// a missing/unknown "op", or a field of the wrong type — the server turns
/// that into an {"serve":"error",...} reply instead of dying.
Request parse_request(const std::string& line);

/// Serialise `request` as its wire line (no trailing newline). parse_request
/// inverts it exactly; the `--submit` client sends this.
std::string format_request(const Request& request);

/// True when `line` is a server control line rather than a streamed campaign
/// cell record (prefix test, see the protocol comment above).
bool is_control_line(const std::string& line);

/// The value of the first field named `key` in a JSON line, at any depth: a
/// string decoded exactly as JsonWriter escaped it, a number or boolean as
/// its text, "" when no such field holds a string or scalar. Throws
/// std::invalid_argument on malformed JSON before that field. Clients and
/// tests read {"serve":...} responses and fields of cell records with it.
std::string control_field(const std::string& line, const std::string& key);

// --- socket helpers ----------------------------------------------------------

/// Connect to a unix-domain socket; returns the fd. Throws std::runtime_error
/// (with errno text) on failure.
int connect_unix(const std::string& socket_path);

/// Write all of `data` to a socket fd, retrying short writes and EINTR.
/// Sends with MSG_NOSIGNAL so a vanished peer yields EPIPE, never SIGPIPE.
/// Returns false on any write error (the caller treats the peer as gone).
bool write_all(int fd, const std::string& data);

/// Incremental newline framing: feed raw reads into `buffer`, pop one
/// complete line (without the '\n') when available.
bool pop_line(std::string& buffer, std::string& line);

// --- client modes ------------------------------------------------------------

/// The `dflysim --submit` client: submit a plan (config text + overrides) to
/// a serving daemon and stream results — raw cell JSONL lines to `out`
/// byte-identically to a local `--plan ... --jsonl=-` run, control/progress
/// lines to `err`. Returns the process exit status: 0 = campaign completed
/// clean, 2 = campaign finished with failures/cancellation, 1 = protocol or
/// connection error.
int submit_plan(const std::string& socket_path, const std::string& plan_text,
                const std::vector<std::pair<std::string, std::string>>& sets,
                std::FILE* out, std::FILE* err);

/// The `dflysim --shutdown` client: ask the daemon to stop (drain = finish
/// running campaigns first; false = cancel them). Returns 0 on acknowledged
/// shutdown, 1 on error.
int request_shutdown(const std::string& socket_path, bool drain, std::FILE* err);

}  // namespace dfly::serve
