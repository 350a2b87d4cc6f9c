def pytest_terminal_summary(terminalreporter):
    """List each mutant with the test that killed it, or as a survivor."""
    rows = [dict(report.user_properties)
            for report in terminalreporter.stats.get("passed", [])
            if report.when == "call"]
    rows = [row for row in rows if "mutant" in row]
    if not rows:
        return
    terminalreporter.section("mutants")
    for row in rows:
        if row["killer"]:
            terminalreporter.write_line(f"killed    {row['mutant']}  by {row['killer']}")
        else:
            terminalreporter.write_line(f"SURVIVED  {row['mutant']}")
    survived = sum(not row["killer"] for row in rows)
    terminalreporter.write_line(f"{len(rows) - survived} killed, {survived} survived")
