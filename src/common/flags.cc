#include "common/flags.h"

#include <iostream>

#include "common/logging.h"
#include "common/strings.h"

namespace flinkless {

FlagParser::Flag* FlagParser::Register(const std::string& name, Kind kind,
                                       const std::string& help) {
  FLINKLESS_CHECK(flags_.count(name) == 0,
                  "flag '" << name << "' registered twice");
  Flag flag;
  flag.kind = kind;
  flag.help = help;
  auto [it, inserted] = flags_.emplace(name, std::move(flag));
  (void)inserted;
  order_.push_back(name);
  return &it->second;
}

int64_t* FlagParser::Int64(const std::string& name, int64_t default_value,
                           const std::string& help) {
  Flag* flag = Register(name, Kind::kInt64, help);
  flag->int64_value = default_value;
  flag->default_text = std::to_string(default_value);
  return &flag->int64_value;
}

double* FlagParser::Double(const std::string& name, double default_value,
                           const std::string& help) {
  Flag* flag = Register(name, Kind::kDouble, help);
  flag->double_value = default_value;
  flag->default_text = FormatDouble(default_value);
  return &flag->double_value;
}

std::string* FlagParser::String(const std::string& name,
                                std::string default_value,
                                const std::string& help) {
  Flag* flag = Register(name, Kind::kString, help);
  flag->string_value = std::move(default_value);
  flag->default_text = "\"" + flag->string_value + "\"";
  return &flag->string_value;
}

bool* FlagParser::Bool(const std::string& name, bool default_value,
                       const std::string& help) {
  Flag* flag = Register(name, Kind::kBool, help);
  flag->bool_value = default_value;
  flag->default_text = default_value ? "true" : "false";
  return &flag->bool_value;
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--help") {
      help_requested_ = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument '" +
                                     std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    bool has_value = false;
    auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      name = std::string(arg);
    } else {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
      has_value = true;
    }

    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag '--" + name + "'");
    }
    Flag& flag = it->second;
    switch (flag.kind) {
      case Kind::kBool:
        if (!has_value) {
          flag.bool_value = true;
        } else if (value == "true" || value == "1") {
          flag.bool_value = true;
        } else if (value == "false" || value == "0") {
          flag.bool_value = false;
        } else {
          return Status::InvalidArgument("bad bool for --" + name + ": '" +
                                         value + "'");
        }
        break;
      case Kind::kInt64:
        if (!has_value || !ParseInt64(value, &flag.int64_value)) {
          return Status::InvalidArgument("bad int for --" + name + ": '" +
                                         value + "'");
        }
        break;
      case Kind::kDouble:
        if (!has_value || !ParseDouble(value, &flag.double_value)) {
          return Status::InvalidArgument("bad double for --" + name + ": '" +
                                         value + "'");
        }
        break;
      case Kind::kString:
        if (!has_value) {
          return Status::InvalidArgument("--" + name + " needs a value");
        }
        flag.string_value = value;
        break;
    }
  }
  return Status::OK();
}

std::optional<int> FlagParser::ParseMain(int argc, const char* const* argv) {
  if (Status s = Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n" << Usage();
    return 1;
  }
  if (help_requested_) {
    std::cout << Usage();
    return 0;
  }
  return std::nullopt;
}

std::string FlagParser::Usage() const {
  std::string out = "flags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    out += "  --" + name + " (default: " + flag.default_text + ")  " +
           flag.help + "\n";
  }
  return out;
}

}  // namespace flinkless
