#include "serve/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace dhdl::serve {

namespace {

Status
clientError(std::string message,
            DiagCode code = DiagCode::UserError)
{
    return Status::error(code, "client", std::move(message));
}

} // namespace

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

Status
Client::connect(const std::string& address)
{
    close();
    std::string host = "127.0.0.1";
    std::string portStr = address;
    if (size_t colon = address.rfind(':');
        colon != std::string::npos) {
        host = address.substr(0, colon);
        portStr = address.substr(colon + 1);
    }
    char* end = nullptr;
    long port = std::strtol(portStr.c_str(), &end, 10);
    if (portStr.empty() || *end != '\0' || port <= 0 || port > 65535)
        return clientError("bad server address \"" + address +
                              "\" (want host:port)");

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return clientError(std::string("socket: ") +
                              std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return clientError("bad host \"" + host +
                              "\" (want an IPv4 address)");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) < 0) {
        Status st = clientError("connect to " + address + ": " +
                                   std::strerror(errno));
        ::close(fd);
        return st;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    return Status();
}

Status
Client::send(const Json& req)
{
    return sendLine(req.render());
}

Status
Client::sendLine(const std::string& raw)
{
    if (fd_ < 0)
        return clientError("not connected");
    return writeLine(fd_, raw);
}

Status
Client::recvLine(std::string& out)
{
    if (fd_ < 0)
        return clientError("not connected");
    return readLine(fd_, buf_, out);
}

Status
Client::recv(Json& out)
{
    std::string line;
    if (Status st = recvLine(line); !st.ok())
        return st;
    return parseJson(line, out);
}

Status
Client::request(const Json& reqIn, Json& resp)
{
    Json req = reqIn;
    if (!req.find("proto"))
        req.set("proto", kProtocolVersion);
    if (Status st = send(req); !st.ok())
        return st;
    return recv(resp);
}

Status
Client::hello(std::string* serverVersion)
{
    Json req = Json::object();
    req.set("op", "hello");
    Json resp;
    if (Status st = request(req, resp); !st.ok())
        return st;
    const Json* ok = resp.find("ok");
    if (!ok || !ok->asBool()) {
        const Json* e = resp.find("error");
        const Json* m = e ? e->find("message") : nullptr;
        return clientError(m ? m->asString() : "handshake rejected",
                           DiagCode::VersionMismatch);
    }
    if (const Json* proto = resp.find("proto");
        !proto || proto->asInt() != kProtocolVersion)
        return clientError("server speaks a different protocol version",
                           DiagCode::VersionMismatch);
    if (serverVersion) {
        *serverVersion = "unknown";
        if (const Json* v = resp.find("version"))
            *serverVersion = v->asString();
    }
    return Status();
}

} // namespace dhdl::serve
