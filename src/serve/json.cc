#include "serve/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dhdl::serve {

Json&
Json::set(const std::string& key, Json v)
{
    kind_ = Kind::Object;
    for (auto& [k, val] : members_) {
        if (k == key) {
            val = std::move(v);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(v));
    return *this;
}

const Json*
Json::find(const std::string& key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

void
escapeTo(std::string& out, const std::string& s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (uint8_t(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::renderTo(std::string& out) const
{
    switch (kind_) {
    case Kind::Null:
        out += "null";
        return;
    case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
    case Kind::Int: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(int_));
        out += buf;
        return;
    }
    case Kind::Double: {
        // %.17g round-trips every finite double through strtod, so
        // parse(render(v)) == v and re-rendering is byte-stable.
        // Non-finite values have no JSON spelling; emit null.
        if (!std::isfinite(dbl_)) {
            out += "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", dbl_);
        out += buf;
        return;
    }
    case Kind::String:
        escapeTo(out, str_);
        return;
    case Kind::Array:
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            items_[i].renderTo(out);
        }
        out += ']';
        return;
    case Kind::Object:
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            escapeTo(out, members_[i].first);
            out += ':';
            members_[i].second.renderTo(out);
        }
        out += '}';
        return;
    }
}

std::string
Json::render() const
{
    std::string out;
    renderTo(out);
    return out;
}

namespace {

/** Recursive-descent parser over a bounded view; never throws. */
class Parser
{
  public:
    Parser(std::string_view text, const JsonLimits& limits)
        : text_(text), limits_(limits) {}

    Status
    parse(Json& out)
    {
        if (text_.size() > limits_.maxBytes)
            return fail(0, "input exceeds size cap");
        Status st = value(out, 0);
        if (!st.ok())
            return st;
        skipWs();
        if (pos_ != text_.size())
            return fail(pos_, "trailing bytes after document");
        return Status();
    }

  private:
    static Status
    fail(size_t at, const std::string& what)
    {
        return Status::error(DiagCode::ParseError, "json",
                             what + " (byte " + std::to_string(at) +
                                 ")");
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (text_.size() - pos_ < n ||
            text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Status
    value(Json& out, int depth)
    {
        if (depth > limits_.maxDepth)
            return fail(pos_, "nesting exceeds depth cap");
        skipWs();
        if (pos_ >= text_.size())
            return fail(pos_, "unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            std::string s;
            Status st = string(s);
            if (!st.ok())
                return st;
            out = Json(std::move(s));
            return Status();
        }
        if (literal("true")) {
            out = Json(true);
            return Status();
        }
        if (literal("false")) {
            out = Json(false);
            return Status();
        }
        if (literal("null")) {
            out = Json();
            return Status();
        }
        return number(out);
    }

    Status
    object(Json& out, int depth)
    {
        consume('{');
        out = Json::object();
        skipWs();
        if (consume('}'))
            return Status();
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail(pos_, "expected object key");
            std::string key;
            Status st = string(key);
            if (!st.ok())
                return st;
            skipWs();
            if (!consume(':'))
                return fail(pos_, "expected ':' after key");
            Json v;
            st = value(v, depth + 1);
            if (!st.ok())
                return st;
            out.set(key, std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status();
            return fail(pos_, "expected ',' or '}' in object");
        }
    }

    Status
    array(Json& out, int depth)
    {
        consume('[');
        out = Json::array();
        skipWs();
        if (consume(']'))
            return Status();
        while (true) {
            Json v;
            Status st = value(v, depth + 1);
            if (!st.ok())
                return st;
            out.push(std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status();
            return fail(pos_, "expected ',' or ']' in array");
        }
    }

    Status
    string(std::string& out)
    {
        const size_t start = pos_;
        consume('"');
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return Status();
            if (uint8_t(c) < 0x20)
                return fail(pos_ - 1,
                            "unescaped control byte in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            switch (e) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                uint32_t cp = 0;
                if (!hex4(cp))
                    return fail(pos_, "bad \\u escape");
                // Surrogate pair: combine when a low surrogate
                // follows; a lone surrogate encodes as U+FFFD.
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.size() - pos_ >= 6 &&
                    text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    uint32_t lo = 0;
                    if (!hex4(lo))
                        return fail(pos_, "bad \\u escape");
                    if (lo >= 0xDC00 && lo <= 0xDFFF)
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    else
                        cp = 0xFFFD;
                } else if (cp >= 0xD800 && cp <= 0xDFFF) {
                    cp = 0xFFFD;
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail(pos_ - 1, "bad escape character");
            }
        }
        return fail(start, "unterminated string");
    }

    bool
    hex4(uint32_t& out)
    {
        if (text_.size() - pos_ < 4)
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= uint32_t(c - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    static void
    appendUtf8(std::string& out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    Status
    number(Json& out)
    {
        const size_t start = pos_;
        bool integral = true;
        if (consume('-')) {
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start ||
            (pos_ == start + 1 && text_[start] == '-'))
            return fail(start, "expected a value");
        const std::string tok(text_.substr(start, pos_ - start));
        errno = 0;
        char* end = nullptr;
        if (integral) {
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (end == tok.c_str() + tok.size() && errno != ERANGE) {
                out = Json(int64_t(v));
                return Status();
            }
            // Out-of-range integers fall through to double.
        }
        errno = 0;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(d))
            return fail(start, "malformed number");
        out = Json(d);
        return Status();
    }

    std::string_view text_;
    const JsonLimits& limits_;
    size_t pos_ = 0;
};

} // namespace

Status
parseJson(std::string_view text, Json& out, const JsonLimits& limits)
{
    Parser p(text, limits);
    return p.parse(out);
}

} // namespace dhdl::serve
