def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: runs the benchmark's traced workloads end to end")
