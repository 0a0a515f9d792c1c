#include "core/diag.hh"

#include <algorithm>
#include <map>

namespace dhdl {

void
fatalLiteral(const char* msg, DiagCode code)
{
    fatal(std::string(msg), code);
}

void
panicLiteral(const char* msg)
{
    panic(std::string(msg));
}

const char*
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::Ok:
        return "ok";
      case DiagCode::Unknown:
        return "unknown";
      case DiagCode::UserError:
        return "user-error";
      case DiagCode::InternalError:
        return "internal-error";
      case DiagCode::IllegalBinding:
        return "illegal-binding";
      case DiagCode::InstantiationFailed:
        return "instantiation-failed";
      case DiagCode::AreaEstimationFailed:
        return "area-estimation-failed";
      case DiagCode::RuntimeEstimationFailed:
        return "runtime-estimation-failed";
      case DiagCode::DeviceCapacityExceeded:
        return "device-capacity-exceeded";
      case DiagCode::TimeBudgetExceeded:
        return "time-budget-exceeded";
      case DiagCode::EvalBudgetExceeded:
        return "eval-budget-exceeded";
      case DiagCode::CheckpointIo:
        return "checkpoint-io";
      case DiagCode::CheckpointMismatch:
        return "checkpoint-mismatch";
      case DiagCode::HostApiMisuse:
        return "host-api-misuse";
      case DiagCode::ParseError:
        return "parse-error";
      case DiagCode::SamplingShortfall:
        return "sampling-shortfall";
      case DiagCode::Cancelled:
        return "cancelled";
      case DiagCode::AdmissionRejected:
        return "admission-rejected";
      case DiagCode::VersionMismatch:
        return "version-mismatch";
    }
    return "unknown";
}

DiagCode
diagCodeFromName(std::string_view name)
{
    static const DiagCode all[] = {
        DiagCode::Ok,
        DiagCode::Unknown,
        DiagCode::UserError,
        DiagCode::InternalError,
        DiagCode::IllegalBinding,
        DiagCode::InstantiationFailed,
        DiagCode::AreaEstimationFailed,
        DiagCode::RuntimeEstimationFailed,
        DiagCode::DeviceCapacityExceeded,
        DiagCode::TimeBudgetExceeded,
        DiagCode::EvalBudgetExceeded,
        DiagCode::CheckpointIo,
        DiagCode::CheckpointMismatch,
        DiagCode::HostApiMisuse,
        DiagCode::ParseError,
        DiagCode::SamplingShortfall,
        DiagCode::Cancelled,
        DiagCode::AdmissionRejected,
        DiagCode::VersionMismatch,
    };
    for (DiagCode c : all) {
        if (name == diagCodeName(c))
            return c;
    }
    return DiagCode::Unknown;
}

std::string
Diag::str() const
{
    std::ostringstream os;
    os << (severity == DiagSeverity::Error ? "error" : "warning");
    os << " [" << diagCodeName(code) << "]";
    if (!stage.empty())
        os << " at " << stage;
    if (pointIndex >= 0)
        os << " (point " << pointIndex << ")";
    if (!worker.empty())
        os << " on " << worker;
    os << ": " << message;
    if (!context.empty())
        os << " {" << context << "}";
    return os.str();
}

void
DiagSink::report(Diag d)
{
    std::lock_guard<std::mutex> lock(mu_);
    (d.severity == DiagSeverity::Error ? errors_ : warnings_)++;
    diags_.push_back(std::move(d));
}

size_t
DiagSink::errorCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
}

size_t
DiagSink::warningCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return warnings_;
}

size_t
DiagSink::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return diags_.size();
}

std::vector<Diag>
DiagSink::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return diags_;
}

std::vector<Diag>
DiagSink::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Diag> out = std::move(diags_);
    diags_.clear();
    errors_ = 0;
    warnings_ = 0;
    return out;
}

Diag
diagFromCurrentException(const std::string& stage)
{
    Diag d;
    d.stage = stage;
    try {
        throw;
    } catch (const FatalError& e) {
        d.code = e.code();
        d.message = e.what();
    } catch (const PanicError& e) {
        d.code = e.code();
        d.message = e.what();
    } catch (const std::exception& e) {
        d.code = DiagCode::Unknown;
        d.message = e.what();
    } catch (...) {
        d.code = DiagCode::Unknown;
        d.message = "non-standard exception";
    }
    return d;
}

std::vector<std::pair<std::string, size_t>>
topReasons(const std::vector<Diag>& diags, size_t top)
{
    // Group by (code, stage); keep the first message as an exemplar.
    std::map<std::pair<std::string, std::string>,
             std::pair<size_t, std::string>>
        groups;
    for (const auto& d : diags) {
        if (d.severity != DiagSeverity::Error)
            continue;
        auto key = std::make_pair(std::string(diagCodeName(d.code)),
                                  d.stage);
        auto& g = groups[key];
        if (g.first++ == 0)
            g.second = d.message;
    }
    std::vector<std::pair<std::string, size_t>> out;
    out.reserve(groups.size());
    for (const auto& [key, g] : groups) {
        std::string label = key.first;
        if (!key.second.empty())
            label += "@" + key.second;
        std::string msg = g.second;
        if (msg.size() > 60)
            msg = msg.substr(0, 57) + "...";
        if (!msg.empty())
            label += " (" + msg + ")";
        out.emplace_back(std::move(label), g.first);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) {
                         return a.second > b.second;
                     });
    if (out.size() > top)
        out.resize(top);
    return out;
}

} // namespace dhdl
