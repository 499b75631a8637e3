#pragma once

// Fixed-width table output for the benchmark binaries, so every
// figure's data can be read off the terminal, plus a JSON reporter so
// one benchmark invocation emits one machine-readable report for CI,
// regression tracking and plotting.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace klsm {

class table_reporter {
public:
    explicit table_reporter(std::vector<std::string> columns,
                            std::ostream &os = std::cout)
        : columns_(std::move(columns)), os_(os) {
        print_row_impl(columns_, true);
    }

    template <typename... Cells>
    void row(Cells &&...cells) {
        std::vector<std::string> out;
        (out.push_back(to_cell(std::forward<Cells>(cells))), ...);
        print_row_impl(out, false);
    }

private:
    static std::string to_cell(const std::string &s) { return s; }
    static std::string to_cell(const char *s) { return s; }
    static std::string to_cell(double v) {
        std::ostringstream os;
        if (v != 0 && (v >= 1e6 || v < 1e-2))
            os << std::scientific << std::setprecision(3) << v;
        else
            os << std::fixed << std::setprecision(3) << v;
        return os.str();
    }
    template <typename T>
    static std::string to_cell(T v) {
        return std::to_string(v);
    }

    void print_row_impl(const std::vector<std::string> &cells, bool header) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            os_ << std::left << std::setw(i == 0 ? 16 : 14) << cells[i];
        os_ << "\n";
        if (header) {
            for (std::size_t i = 0; i < cells.size(); ++i)
                os_ << std::string(i == 0 ? 15 : 13, '-') << " ";
            os_ << "\n";
        }
        os_.flush();
    }

    std::vector<std::string> columns_;
    std::ostream &os_;
};

/// An ordered set of name -> JSON-scalar fields.
class json_record {
public:
    void set(const std::string &name, const std::string &v) {
        fields_.emplace_back(name, quote(v));
    }
    void set(const std::string &name, const char *v) {
        fields_.emplace_back(name, quote(v));
    }
    void set(const std::string &name, bool v) {
        fields_.emplace_back(name, v ? "true" : "false");
    }
    void set(const std::string &name, double v) {
        if (!std::isfinite(v)) {
            fields_.emplace_back(name, "null");
            return;
        }
        std::ostringstream os;
        os << std::setprecision(17) << v;
        fields_.emplace_back(name, os.str());
    }
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    void set(const std::string &name, T v) {
        fields_.emplace_back(name, std::to_string(v));
    }

    /// Attach an already-serialized JSON value (object or array)
    /// verbatim — how records embed nested structure like the `latency`
    /// object (src/stats/latency_report.hpp) without this reporter
    /// growing a full JSON tree model.  The caller owns validity.
    void set_raw(const std::string &name, std::string json_value) {
        fields_.emplace_back(name, std::move(json_value));
    }

    void write(std::ostream &os) const {
        os << "{";
        for (std::size_t i = 0; i < fields_.size(); ++i)
            os << (i ? "," : "") << quote(fields_[i].first) << ":"
               << fields_[i].second;
        os << "}";
    }

    std::string str() const {
        std::ostringstream os;
        write(os);
        return os.str();
    }

private:
    static std::string quote(const std::string &s) {
        std::string out = "\"";
        for (const char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        out += '"';
        return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Report schemas (scripts/check_report.py reads them from the report's
/// `schema` meta block) are specs: whitespace-separated `path:type[:unit]`
/// declarations.  A path is dotted ("[]" steps into every list element,
/// a number into one; a trailing "?" marks a field that may be absent),
/// and a type is one of count (an integer >= 0), number (finite, >= 0),
/// ratio (a number in [0, 1]), bool, string (non-empty) or enum=a|b (one
/// of the listed values).
///
/// `spec` with `prefix` before every path.
inline std::string prefixed(const std::string &prefix,
                            const std::string &spec) {
    std::istringstream in(spec);
    std::string out;
    for (std::string decl; in >> decl;)
        out += prefix + decl + ' ';
    return out;
}

/// Accumulates one record per benchmark scenario and writes a single
/// JSON document: `{"benchmark": ..., <meta fields>, "records": [...]}`.
class json_reporter {
public:
    explicit json_reporter(const std::string &benchmark) {
        meta_.set("benchmark", benchmark);
    }

    /// Top-level metadata (parameters shared by all records).
    json_record &meta() { return meta_; }

    json_record &add_record() {
        records_.emplace_back();
        return records_.back();
    }

    void write(std::ostream &os) const {
        // Meta fields are inlined at the top level (no nested "meta"
        // object) so the document stays flat and easy to query.
        std::ostringstream tmp;
        meta_.write(tmp);
        std::string meta_fields = tmp.str();           // "{...}"
        meta_fields = meta_fields.substr(1, meta_fields.size() - 2);
        os << "{" << meta_fields;
        if (!meta_fields.empty())
            os << ",";
        os << "\"records\":[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            if (i)
                os << ",";
            records_[i].write(os);
        }
        os << "]}\n";
    }

private:
    json_record meta_;
    // deque: add_record hands out references that must survive later
    // add_record calls.
    std::deque<json_record> records_;
};

} // namespace klsm
