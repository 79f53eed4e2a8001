"""A social-network application, used for the scale experiments.

Richer than the paper's running examples: visibility-dependent post
access ("public" / "friends"), a friendship graph, and comments. Its
policy has more views than the other apps, which is what the E10
rewriting-scalability sweep varies.
"""

from __future__ import annotations

import random

from repro.engine import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Schema,
    TableSchema,
    open_database,
)
from repro.extract.handlers import (
    Abort,
    Assign,
    Compare,
    ConstArg,
    FieldRef,
    ForEach,
    Handler,
    If,
    IsEmpty,
    ParamRef,
    Query,
    Return,
    SessionRef,
)
from repro.policy import Policy, View
from repro.workloads.datagen import pick_name, rng_of
from repro.workloads.runner import Request, WorkloadApp


def make_schema() -> Schema:
    return Schema.of(
        TableSchema(
            "Users",
            (
                Column("UId", ColumnType.INT, nullable=False),
                Column("Name", ColumnType.TEXT, nullable=False),
            ),
            primary_key=("UId",),
        ),
        TableSchema(
            "Friendships",
            (
                Column("UId1", ColumnType.INT, nullable=False),
                Column("UId2", ColumnType.INT, nullable=False),
            ),
            primary_key=("UId1", "UId2"),
            foreign_keys=(
                ForeignKey("UId1", "Users", "UId"),
                ForeignKey("UId2", "Users", "UId"),
            ),
        ),
        TableSchema(
            "Posts",
            (
                Column("PId", ColumnType.INT, nullable=False),
                Column("Author", ColumnType.INT, nullable=False),
                Column("Content", ColumnType.TEXT, nullable=False),
                Column("Visibility", ColumnType.TEXT, nullable=False),
            ),
            primary_key=("PId",),
            foreign_keys=(ForeignKey("Author", "Users", "UId"),),
        ),
        TableSchema(
            "Comments",
            (
                Column("CId", ColumnType.INT, nullable=False),
                Column("PId", ColumnType.INT, nullable=False),
                Column("Author", ColumnType.INT, nullable=False),
                Column("Body", ColumnType.TEXT, nullable=False),
            ),
            primary_key=("CId",),
            foreign_keys=(
                ForeignKey("PId", "Posts", "PId"),
                ForeignKey("Author", "Users", "UId"),
            ),
        ),
    )


def make_database(
    size: int = 30,
    seed: int = 17,
    *,
    backend: str | None = None,
    db_path: str | None = None,
) -> Database:
    """``size`` users, ~3 friends and ~2 posts each, ~1 comment per post."""
    rng = rng_of(seed)
    db = open_database(make_schema(), backend=backend, path=db_path)
    if db.total_rows():  # a reopened durable file keeps its existing data
        return db
    users = [(uid, pick_name(rng, uid - 1)) for uid in range(1, size + 1)]
    db.insert_rows("Users", users)
    friendships = set()
    for uid in range(1, size + 1):
        for _ in range(3):
            other = rng.randrange(1, size + 1)
            if other != uid:
                friendships.add((uid, other))
                friendships.add((other, uid))
    db.insert_rows("Friendships", sorted(friendships))
    posts = []
    pid = 0
    for uid in range(1, size + 1):
        for _ in range(2):
            pid += 1
            visibility = "public" if rng.random() < 0.5 else "friends"
            posts.append((pid, uid, f"post {pid} by user {uid}", visibility))
    db.insert_rows("Posts", posts)
    comments = []
    cid = 0
    for post_id, author, _, _ in posts:
        if rng.random() < 0.6:
            cid += 1
            commenter = rng.randrange(1, size + 1)
            comments.append((cid, post_id, commenter, f"comment {cid}"))
    db.insert_rows("Comments", comments)
    return db


def ground_truth_policy() -> Policy:
    schema = make_schema()
    return Policy(
        [
            View(
                "Vnames",
                "SELECT UId, Name FROM Users",
                schema,
                "the public user directory",
            ),
            View(
                "Vmeta",
                "SELECT PId, Author, Visibility FROM Posts",
                schema,
                "post metadata (id, author, visibility) is public;"
                " content is not",
            ),
            View(
                "Vown",
                "SELECT * FROM Posts WHERE Author = ?MyUId",
                schema,
                "users see their own posts",
            ),
            View(
                "Vpublic",
                "SELECT * FROM Posts WHERE Visibility = 'public'",
                schema,
                "everyone sees public posts",
            ),
            View(
                "Vfriendposts",
                "SELECT p.PId, p.Author, p.Content, p.Visibility FROM Posts p"
                " JOIN Friendships f ON p.Author = f.UId2"
                " WHERE f.UId1 = ?MyUId AND p.Visibility = 'friends'",
                schema,
                "users see friends-only posts of their friends",
            ),
            View(
                "Vfriends",
                "SELECT UId2 FROM Friendships WHERE UId1 = ?MyUId",
                schema,
                "users see their own friend list",
            ),
            View(
                "Vpubliccomments",
                "SELECT c.CId, c.PId, c.Author, c.Body FROM Comments c"
                " JOIN Posts p ON c.PId = p.PId WHERE p.Visibility = 'public'",
                schema,
                "comments on public posts",
            ),
            View(
                "Vowncomments",
                "SELECT c.CId, c.PId, c.Author, c.Body FROM Comments c"
                " JOIN Posts p ON c.PId = p.PId WHERE p.Author = ?MyUId",
                schema,
                "comments on one's own posts",
            ),
            View(
                "Vfriendcomments",
                "SELECT c.CId, c.PId, c.Author, c.Body FROM Comments c"
                " JOIN Posts p ON c.PId = p.PId"
                " JOIN Friendships f ON p.Author = f.UId2"
                " WHERE f.UId1 = ?MyUId AND p.Visibility = 'friends'",
                schema,
                "comments on friends-only posts of friends",
            ),
        ],
        name="social",
    )


def make_handlers() -> dict[str, Handler]:
    my_posts = Handler(
        name="my_posts",
        params=(),
        body=(
            Return(
                Query(
                    "SELECT * FROM Posts WHERE Author = ?",
                    (SessionRef("user_id"),),
                )
            ),
        ),
    )
    view_post = Handler(
        name="view_post",
        params=("post_id",),
        body=(
            # Post metadata is public (view Vmeta); the content column is
            # fetched only by the visibility-scoped queries below — the
            # defensive-query style Blockaid-ready applications use.
            Assign(
                "post",
                Query(
                    "SELECT PId, Author, Visibility FROM Posts WHERE PId = ?",
                    (ParamRef("post_id"),),
                ),
            ),
            If(IsEmpty("post"), then=(Abort("no such post"),)),
            If(
                Compare("=", FieldRef("post", "Visibility"), ConstArg("public")),
                then=(
                    Assign(
                        "content",
                        Query(
                            "SELECT Content FROM Posts"
                            " WHERE PId = ? AND Visibility = 'public'",
                            (ParamRef("post_id"),),
                        ),
                    ),
                    Return(
                        Query(
                            "SELECT c.CId, c.Author, c.Body FROM Comments c"
                            " JOIN Posts p ON c.PId = p.PId"
                            " WHERE p.PId = ? AND p.Visibility = 'public'",
                            (ParamRef("post_id"),),
                        )
                    ),
                ),
                orelse=(
                    Assign(
                        "friends",
                        Query(
                            "SELECT 1 FROM Friendships"
                            " WHERE UId1 = ? AND UId2 = ?",
                            (SessionRef("user_id"), FieldRef("post", "Author")),
                        ),
                    ),
                    If(
                        IsEmpty("friends"),
                        then=(Abort("not visible"),),
                    ),
                    Assign(
                        "content",
                        Query(
                            "SELECT p.Content FROM Posts p"
                            " JOIN Friendships f ON f.UId2 = p.Author"
                            " WHERE f.UId1 = ? AND p.PId = ?"
                            " AND p.Visibility = 'friends'",
                            (SessionRef("user_id"), ParamRef("post_id")),
                        ),
                    ),
                    Return(
                        Query(
                            "SELECT c.CId, c.Author, c.Body FROM Comments c"
                            " JOIN Posts p ON c.PId = p.PId"
                            " JOIN Friendships f ON f.UId2 = p.Author"
                            " WHERE f.UId1 = ? AND p.PId = ?"
                            " AND p.Visibility = 'friends'",
                            (SessionRef("user_id"), ParamRef("post_id")),
                        )
                    ),
                ),
            ),
        ),
    )
    friend_feed = Handler(
        name="friend_feed",
        params=(),
        body=(
            Assign(
                "friends",
                Query(
                    "SELECT UId2 FROM Friendships WHERE UId1 = ?",
                    (SessionRef("user_id"),),
                ),
            ),
            ForEach(
                "friend",
                "friends",
                body=(
                    Assign(
                        "posts",
                        Query(
                            "SELECT PId, Author, Content, Visibility FROM Posts"
                            " WHERE Author = ? AND Visibility = 'friends'",
                            (FieldRef("friend", "UId2"),),
                        ),
                    ),
                ),
            ),
            Return(None),
        ),
    )
    my_post_comments = Handler(
        name="my_post_comments",
        params=("post_id",),
        body=(
            Return(
                Query(
                    "SELECT c.CId, c.PId, c.Author, c.Body FROM Comments c"
                    " JOIN Posts p ON c.PId = p.PId"
                    " WHERE p.PId = ? AND p.Author = ?",
                    (ParamRef("post_id"), SessionRef("user_id")),
                )
            ),
        ),
    )
    user_directory = Handler(
        name="user_directory",
        params=(),
        body=(Return(Query("SELECT UId, Name FROM Users")),),
    )
    public_wall = Handler(
        name="public_wall",
        params=(),
        body=(
            Return(
                Query("SELECT * FROM Posts WHERE Visibility = 'public'")
            ),
        ),
    )
    return {
        handler.name: handler
        for handler in (
            my_posts,
            view_post,
            friend_feed,
            public_wall,
            my_post_comments,
            user_directory,
        )
    }


def request_stream(db: Database, rng: random.Random, n: int) -> list[Request]:
    users = [row[0] for row in db.query("SELECT UId FROM Users").rows]
    visible: dict[int, list[int]] = {}
    for uid in users:
        rows = db.query(
            "SELECT PId FROM Posts WHERE Visibility = 'public'"
        ).rows
        own = db.query("SELECT PId FROM Posts WHERE Author = ?", [uid]).rows
        friend_posts = db.query(
            "SELECT p.PId FROM Posts p JOIN Friendships f ON p.Author = f.UId2"
            " WHERE f.UId1 = ? AND p.Visibility = 'friends'",
            [uid],
        ).rows
        visible[uid] = sorted({r[0] for r in rows + own + friend_posts})
    requests = []
    for _ in range(n):
        uid = rng.choice(users)
        session = {"user_id": uid}
        kind = rng.random()
        if kind < 0.35 and visible[uid]:
            requests.append(
                Request("view_post", {"post_id": rng.choice(visible[uid])}, session)
            )
        elif kind < 0.55:
            requests.append(Request("friend_feed", {}, session))
        elif kind < 0.7:
            requests.append(Request("public_wall", {}, session))
        elif kind < 0.85:
            requests.append(Request("my_posts", {}, session))
        elif kind < 0.95:
            own = db.query(
                "SELECT PId FROM Posts WHERE Author = ?", [uid]
            ).rows
            if own:
                requests.append(
                    Request(
                        "my_post_comments",
                        {"post_id": rng.choice(own)[0]},
                        session,
                    )
                )
            else:
                requests.append(Request("user_directory", {}, session))
        else:
            requests.append(Request("user_directory", {}, session))
    return requests


def attack_queries(db: Database, user_id: object) -> list[tuple[str, list]]:
    return [
        ("SELECT * FROM Posts", []),
        ("SELECT * FROM Posts WHERE Visibility = 'friends'", []),
        ("SELECT UId1, UId2 FROM Friendships", []),
        ("SELECT c.Body FROM Comments c", []),
    ]


def make_app() -> WorkloadApp:
    return WorkloadApp(
        name="social",
        make_database=make_database,
        handlers=make_handlers(),
        ground_truth_policy=ground_truth_policy,
        request_stream=request_stream,
        attack_queries=attack_queries,
        rls_predicates={
            "Posts": (
                "{T}.Author = ?MyUId OR {T}.Visibility = 'public'"
                " OR EXISTS (SELECT 1 FROM Friendships rls"
                " WHERE rls.UId1 = ?MyUId AND rls.UId2 = {T}.Author)"
            ),
            "Friendships": "{T}.UId1 = ?MyUId",
        },
        default_size=30,
    )
