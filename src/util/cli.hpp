#pragma once

// Minimal command-line flag parser shared by the benchmark binaries.
// Flags look like `--threads 4` or `--threads=4`; unrecognized flags abort
// with a usage message so typos in experiment scripts fail loudly.
//
// Flags can be organised into named groups (`begin_group`): `--help`
// prints one section per group, which is how klsm_bench shows each
// workload's flags under its own heading.  Re-registering a flag name
// exits immediately — with many workloads contributing flags to one
// parser, a silent collision would leave one of them reading the
// other's value.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace klsm {

class cli_parser {
public:
    cli_parser(std::string description) : description_(std::move(description)) {}

    void add_flag(const std::string &name, const std::string &default_value,
                  const std::string &help) {
        if (values_.count(name)) {
            std::cerr << "internal error: flag --" << name
                      << " registered twice\n";
            std::exit(2);
        }
        values_[name] = default_value;
        help_.push_back({name, help + " (default: " + default_value + ")",
                         current_group_});
    }

    /// Flags added after this call belong to `title`; `usage()` prints
    /// one section per group in first-registration order.  Flags added
    /// before any begin_group() render first, unheaded.
    void begin_group(const std::string &title) { current_group_ = title; }

    /// Names of the flags registered under `title`, in registration
    /// order.  Lets tests assert that a workload's flags stay inside
    /// its own group.
    std::vector<std::string> group_flags(const std::string &title) const {
        std::vector<std::string> out;
        for (const auto &e : help_)
            if (e.group == title)
                out.push_back(e.name);
        return out;
    }

    /// Group titles in first-registration order (the unheaded group is
    /// the empty string and is omitted).
    std::vector<std::string> groups() const {
        std::vector<std::string> out;
        for (const auto &e : help_)
            if (!e.group.empty() &&
                std::find(out.begin(), out.end(), e.group) == out.end())
                out.push_back(e.group);
        return out;
    }

    /// A boolean flag: bare `--name` means true; `--name=false` and
    /// `--name false` still work.
    void add_bool_flag(const std::string &name, bool default_value,
                       const std::string &help) {
        add_flag(name, default_value ? "true" : "false", help);
        bool_flags_.insert(name);
    }

    /// Parse argv; exits with usage on `--help` or unknown flags.
    void parse(int argc, char **argv) {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                std::exit(0);
            }
            if (arg.rfind("--", 0) != 0) {
                std::cerr << "unexpected argument: " << arg << "\n";
                usage(argv[0]);
                std::exit(2);
            }
            const auto eq = arg.find('=');
            const std::string name =
                arg.substr(2, eq == std::string::npos ? eq : eq - 2);
            auto it = values_.find(name);
            if (it == values_.end()) {
                std::cerr << "unknown flag --" << name << "\n";
                usage(argv[0]);
                std::exit(2);
            }
            if (eq != std::string::npos) {
                it->second = arg.substr(eq + 1);
            } else if (bool_flags_.count(name) != 0 &&
                       (i + 1 >= argc ||
                        std::string(argv[i + 1]).rfind("--", 0) == 0)) {
                // A bare boolean flag (last argument, or followed by
                // another flag) means true.
                it->second = "true";
            } else if (i + 1 >= argc) {
                std::cerr << "flag --" << name << " needs a value\n";
                std::exit(2);
            } else {
                it->second = argv[++i];
            }
        }
    }

    std::string get(const std::string &name) const { return values_.at(name); }

    std::int64_t get_int(const std::string &name) const {
        return parse_number(name, values_.at(name),
                            [](const std::string &s, std::size_t &pos) {
                                return std::stoll(s, &pos);
                            });
    }

    /// Full-range unsigned 64-bit accessor.  `get_int` goes through
    /// stoll and cannot represent values above INT64_MAX (RNG seeds are
    /// commonly full 64-bit hashes); this parses the whole uint64 range
    /// strictly — rejecting negatives, which stoull would silently wrap.
    std::uint64_t get_uint64(const std::string &name) const {
        const std::string &v = values_.at(name);
        // Require a leading digit: stoull would skip whitespace and then
        // accept a sign, silently wrapping negatives.
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))) {
            std::cerr << "flag --" << name
                      << ": not an unsigned integer: " << v << "\n";
            std::exit(2);
        }
        return parse_number(name, v,
                            [](const std::string &s, std::size_t &pos) {
                                return std::stoull(s, &pos);
                            });
    }

    double get_double(const std::string &name) const {
        return parse_number(name, values_.at(name),
                            [](const std::string &s, std::size_t &pos) {
                                return std::stod(s, &pos);
                            });
    }

    bool get_bool(const std::string &name) const {
        const auto &v = values_.at(name);
        return v == "1" || v == "true" || v == "yes" || v == "on";
    }

    /// Comma-separated integer list, e.g. "--threads 1,2,4".
    std::vector<std::int64_t> get_int_list(const std::string &name) const {
        std::vector<std::int64_t> out;
        std::stringstream ss(values_.at(name));
        std::string tok;
        while (std::getline(ss, tok, ','))
            if (!tok.empty())
                out.push_back(
                    parse_number(name, tok,
                                 [](const std::string &s, std::size_t &pos) {
                                     return std::stoll(s, &pos);
                                 }));
        return out;
    }

    std::vector<std::string> get_list(const std::string &name) const {
        std::vector<std::string> out;
        std::stringstream ss(values_.at(name));
        std::string tok;
        while (std::getline(ss, tok, ','))
            if (!tok.empty())
                out.push_back(tok);
        return out;
    }

private:
    /// stoll/stod throw on fully non-numeric input but silently stop at
    /// trailing garbage ("1e6" parses as 1); exit with the flag name in
    /// both cases instead of truncating or aborting.
    template <typename Parse>
    static auto parse_number(const std::string &name, const std::string &v,
                             Parse &&parse)
        -> decltype(parse(v, std::declval<std::size_t &>())) {
        try {
            std::size_t pos = 0;
            auto out = parse(v, pos);
            if (pos == v.size())
                return out;
        } catch (const std::exception &) {
        }
        std::cerr << "flag --" << name << ": not a number: " << v << "\n";
        std::exit(2);
    }

    void usage(const char *prog) const {
        std::cerr << description_ << "\n\nusage: " << prog << " [flags]\n";
        // One pass per group keeps each group's flags contiguous even
        // if registration interleaved; groups print in first-seen
        // order, the unheaded group first.
        std::vector<std::string> order{""};
        for (const auto &g : groups())
            order.push_back(g);
        for (const auto &group : order) {
            bool any = false;
            for (const auto &e : help_) {
                if (e.group != group)
                    continue;
                if (!any && !group.empty())
                    std::cerr << "\n" << group << ":\n";
                any = true;
                std::cerr << "  --" << e.name << "  " << e.help << "\n";
            }
        }
    }

    struct flag_help {
        std::string name;
        std::string help;
        std::string group;
    };

    std::string description_;
    std::string current_group_;
    std::map<std::string, std::string> values_;
    std::set<std::string> bool_flags_;
    std::vector<flag_help> help_;
};

} // namespace klsm
