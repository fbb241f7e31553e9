#pragma once
/// \file DumpDir.h
/// A fresh scratch directory for one test's flight-recorder dumps, removed
/// with its contents when the test ends. Tests that provoke a communication
/// failure or a health violation point the simulation's dump prefix into
/// it, so no `.wfr` file is left in the working directory.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace walb::testutil {

class DumpDir {
public:
    explicit DumpDir(const std::string& name)
        : path_(std::filesystem::path(testing::TempDir()) / name) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~DumpDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    DumpDir(const DumpDir&) = delete;
    DumpDir& operator=(const DumpDir&) = delete;

    /// Dump prefix inside the directory (see setFlightRecorderDumpPrefix).
    std::string prefix() const { return (path_ / "walb").string(); }

private:
    std::filesystem::path path_;
};

} // namespace walb::testutil
