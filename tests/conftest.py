"""Shows the acceptance battery's ``CRITERION k`` lines in the terminal summary.

The lines are recorded as ``criterion`` test properties, which pytest keeps
on each test report whatever its output-capture setting.
"""


def pytest_terminal_summary(terminalreporter):
    lines = [
        value
        for reports in terminalreporter.stats.values()
        for rep in reports
        if getattr(rep, "when", None) == "call"
        for name, value in getattr(rep, "user_properties", ())
        if name == "criterion"
    ]
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(lines, key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
