/**
 * @file
 * Blocking line-protocol client for dhdld. One Client owns one TCP
 * connection; request() sends a JSON object and reads the response
 * line, send()/recvLine() expose the raw stream for consumers of
 * streamed round events. Used by `dhdlc submit/status/result/cancel`,
 * the serving tests, and dsebench's serve_mix workload.
 */

#ifndef DHDL_SERVE_CLIENT_HH
#define DHDL_SERVE_CLIENT_HH

#include <string>
#include <utility>

#include "serve/protocol.hh"

namespace dhdl::serve {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&& other) noexcept
        : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_))
    {
    }
    Client&
    operator=(Client&& other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = std::exchange(other.fd_, -1);
            buf_ = std::move(other.buf_);
        }
        return *this;
    }

    /**
     * Connect to "host:port" or "port" (host defaults to 127.0.0.1).
     */
    Status connect(const std::string& address);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Exchange the version handshake; fails with VersionMismatch when
     * the server speaks a different protocol. Fills `serverVersion`
     * when given.
     */
    Status hello(std::string* serverVersion = nullptr);

    /**
     * Send one request object (the protocol version is stamped in)
     * and parse the response line. A transport error or unparsable
     * response is a Status error; a `{"ok":false}` response is NOT —
     * callers inspect the returned Json.
     */
    Status request(const Json& req, Json& resp);

    /** Send one raw line (a rendered JSON object). */
    Status send(const Json& req);

    /** Send arbitrary bytes + newline (tests: malformed requests). */
    Status sendLine(const std::string& raw);

    /** Read the next protocol line into `out` (serve::readLine():
     *  capped, '\r' stripped); error on EOF. */
    Status recvLine(std::string& out);

    /** Read and parse the next line. */
    Status recv(Json& out);

  private:
    int fd_ = -1;
    std::string buf_;
};

} // namespace dhdl::serve

#endif // DHDL_SERVE_CLIENT_HH
