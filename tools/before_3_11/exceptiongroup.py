"""A test-only stand-in for the ``exceptiongroup`` backport on Python 3.10.

Before 3.11, pytest and hypothesis import ``BaseExceptionGroup`` and
``ExceptionGroup`` from ``exceptiongroup``.  This module defines the two
classes with ``message``, ``exceptions`` and subscription, and nothing more:
it has no ``split``, ``subgroup`` or ``derive``, and no grouped traceback, so
a test that raises an exception group would misbehave.  It is not part of
the package.  ``tools/check_interpreters.py`` puts this directory on
PYTHONPATH for interpreters before 3.11 only.
"""

import types


class BaseExceptionGroup(BaseException):
    def __init__(self, message, exceptions):
        self.message, self.exceptions = message, tuple(exceptions)
        super().__init__(message, self.exceptions)

    def __str__(self):
        count = len(self.exceptions)
        return f"{self.message} ({count} sub-exception{'s' if count != 1 else ''})"

    __class_getitem__ = classmethod(types.GenericAlias)


class ExceptionGroup(BaseExceptionGroup, Exception):
    pass
