from windowlab import stats

# Domain types whose names start with "Test" are not pytest test classes.
stats.TestReport.__test__ = False
